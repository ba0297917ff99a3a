from setuptools import Extension, setup

# _search.c is plain C loaded through ctypes (vcew._search_c), not a Python
# extension module; optional=True lets an install without a compiler go on
# with the pure-Python kernel.
setup(ext_modules=[Extension("vcew._search", ["src/vcew/_search.c"], optional=True)])
