import crflight


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from crflight import *", namespace)  # raises on a name it lacks
    assert namespace.keys() - {"__builtins__"} == set(crflight.__all__)
