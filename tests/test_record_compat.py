"""Every record class that codec.record or codec.schema builds behaves as a
frozen dataclass: a twin made with dataclasses.make_dataclass from the same
fields and defaults agrees on repr, ==, hash, deepcopy, pickle,
dataclasses.fields, replace and asdict. Kept values such as `encoded`
survive deepcopy and pickle."""

import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from test_record_schema import BLOCKS, RECORDS, TRANSACTIONS

MODULES = ["tx", "block", "state", "chain", "vm", "workflow", "consensus", "sim", "metrics"]


def _record_classes():
    out = []
    for name in MODULES:
        module = importlib.import_module(f"testingplus.{name}")
        out += [cls for key, cls in vars(module).items()
                if not key.startswith("_") and isinstance(cls, type)
                and cls.__module__ == module.__name__ and "_fields" in vars(cls)]
    return out


CLASSES = _record_classes()


def _twin(cls):
    fields = [(n, object, dataclasses.field(default=vars(cls)[n])) if n in vars(cls)
              else (n, object) for n in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: _twin(cls) for cls in CLASSES}

# hashable values that copy and pickle, as every record field holds
VALUES = st.one_of(st.integers(-3, 2**64), st.binary(max_size=6), st.text(max_size=4),
                   st.booleans(), st.none(), st.tuples(st.binary(max_size=3), st.booleans()))


def test_the_cli_import_compiles_one_init_per_field_count():
    """`record` renames one compiled `__init__` per number of fields rather
    than compiling source for each class: in a fresh interpreter, an audit
    hook counts the compiles of generated source that the package makes
    while `import testingplus.cli` runs (the standard library's, such as
    namedtuple's, depend on what the interpreter imported at start)."""
    script = """if True:
        import sys
        compiles = []

        def hook(event, args):
            if event == "compile" and args[1] == "<string>":
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("testingplus"):
                    compiles.append(caller)

        sys.addaudithook(hook)
        import testingplus.cli
        classes = {c for name, m in list(sys.modules.items()) if name.startswith("testingplus")
                   for c in vars(m).values() if isinstance(c, type) and "_fields" in vars(c)}
        print(len(compiles), len({len(c._fields) for c in classes}), len(classes))
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout
    compiles, field_counts, classes = map(int, out.split())
    assert classes >= 20
    assert compiles <= field_counts < classes


def test_every_record_class_is_found():
    assert len(CLASSES) == 37
    assert all(c.__hash__ is not None for c in CLASSES)


@st.composite
def instances(draw):
    """A record class, the arguments its constructor took (its required
    fields and some of its defaulted ones, by position), and a field value
    to replace one field with."""
    cls = draw(st.sampled_from(CLASSES))
    required = sum(n not in vars(cls) for n in cls._fields)
    args = draw(st.lists(VALUES, min_size=required, max_size=len(cls._fields)))
    return cls, args, draw(VALUES)


@given(instances())
def test_a_record_agrees_with_its_dataclass_twin(case):
    cls, args, new = case
    rec, twin = cls(*args), TWINS[cls](*args)
    assert repr(rec) == repr(twin)
    assert rec == cls(*args) and (rec != cls(*args)) is False
    assert rec != twin  # another class, as for two dataclasses
    assert hash(rec) == hash(twin) == hash(tuple(getattr(twin, n) for n in cls._fields))
    for other in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert type(other) is cls and other == rec and repr(other) == repr(rec)
    assert dataclasses.is_dataclass(rec) and dataclasses.is_dataclass(cls)
    assert ([(f.name, f.default, f.default_factory) for f in dataclasses.fields(rec)]
            == [(f.name, f.default, f.default_factory) for f in dataclasses.fields(twin)])
    assert dataclasses.asdict(rec) == dataclasses.asdict(twin)
    if cls._fields:
        name = cls._fields[len(args) % len(cls._fields)]
        replaced = rec.replace(**{name: new})
        assert dataclasses.replace(rec, **{name: new}) == replaced
        assert repr(replaced) == repr(dataclasses.replace(twin, **{name: new}))
        unequal = getattr(twin, name) != new
        assert (replaced != rec) == (dataclasses.replace(twin, **{name: new}) != twin) == unequal
    with pytest.raises(TypeError):
        rec.replace(not_a_field=1)


@given(instances())
def test_a_frozen_record_refuses_writes_as_its_twin_does(case):
    cls, args, new = case
    rec = cls(*args)
    for target in (rec, TWINS[cls](*args)):
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(target, name, new)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(target, name)
    assert repr(rec) == repr(cls(*args))


def test_defaults_and_keywords_match_the_twin():
    for cls in CLASSES:
        required = [n for n in cls._fields if n not in vars(cls)]
        kwargs = {n: i for i, n in enumerate(required)}
        assert repr(cls(**kwargs)) == repr(TWINS[cls](**kwargs)), cls
        with pytest.raises(TypeError):
            cls(*range(len(cls._fields) + 1))


@given(st.one_of(RECORDS, TRANSACTIONS, BLOCKS))
def test_deepcopy_and_pickle_keep_the_kept_encoding(rec):
    encoded = rec.encoded
    for other in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert vars(other)["encoded"] == encoded
        assert other == rec

