"""The package's public names all resolve."""
import levyminmax


def test_every_exported_name_resolves():
    missing = [name for name in levyminmax.__all__
               if not hasattr(levyminmax, name)]
    assert missing == []


def test_star_import_works():
    namespace = {}
    exec("from levyminmax import *", namespace)
    assert set(levyminmax.__all__) <= set(namespace)
