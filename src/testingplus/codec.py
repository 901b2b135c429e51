"""Byte-level primitives shared by every on-chain structure, and the one
record schema that every payload, state record, transaction, block header
and block is built from.

All multi-byte integers are unsigned 64-bit big-endian; byte strings carry a
4-byte big-endian length prefix; a flag is one byte, 0 or 1; a sequence is a
u64 count, then its values. Encodings are injective on their field tuples,
which is what makes hashing them meaningful, and every decoder accepts
exactly the bytes its encoder writes, so those bytes are canonical.
"""

from __future__ import annotations

import hashlib
import io
import reprlib
import struct
from functools import cache
from operator import attrgetter
from types import FunctionType

HASH_LEN = 32
ADDRESS_LEN = 20
ZERO_HASH = b"\x00" * HASH_LEN
ZERO_ADDRESS = b"\x00" * ADDRESS_LEN

U64_MAX = 2**64 - 1


_REQUIRED = object()  # a value not given


class DecodeError(ValueError):
    """Raised when a byte stream does not parse as the expected structure."""


class kept:
    """A method of a frozen class read as an attribute: computed on the
    first read and kept in the instance's __dict__, which later reads find
    first. Unlike functools.cached_property before Python 3.12, the first
    read takes no lock."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def hash256(data: bytes) -> bytes:
    """SHA-256 digest (the project-wide 32-byte hash)."""
    return hashlib.sha256(data).digest()


def enc_u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"value out of u64 range: {value}")
    return struct.pack(">Q", value)


def enc_bytes(data: bytes) -> bytes:
    if len(data) > 0xFFFFFFFF:
        raise ValueError("byte string too long for 4-byte length prefix")
    return struct.pack(">I", len(data)) + data


_U32_AT = struct.Struct(">I").unpack_from
_U64_AT = struct.Struct(">Q").unpack_from


class Reader:
    """Cursor over a byte buffer for decoding canonical encodings."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read_u8(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise DecodeError("unexpected end of input")
        self.pos = pos + 1
        return self.data[pos]

    def peek_u8(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("unexpected end of input")
        return self.data[self.pos]

    def read_u64(self) -> int:
        pos = self.pos
        if pos + 8 > len(self.data):
            raise DecodeError("unexpected end of input")
        self.pos = pos + 8
        return _U64_AT(self.data, pos)[0]

    def read_bytes(self) -> bytes:
        start = self.pos + 4
        if start > len(self.data):
            raise DecodeError("unexpected end of input")
        end = start + _U32_AT(self.data, start - 4)[0]
        if end > len(self.data):
            raise DecodeError("unexpected end of input")
        self.pos = end
        return self.data[start:end]

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")


# Wire kinds of a record field: (encoder, reader) pairs.
U64 = (enc_u64, Reader.read_u64)
BYTES = (enc_bytes, Reader.read_bytes)


def flag(false=False, true=True):
    """The kind of a two-valued field, written as 1 for `true` and 0 for
    anything else, and read back as `true` or `false`."""

    def encode(value) -> bytes:
        return b"\x01" if value == true else b"\x00"

    def read(r: Reader):
        byte = r.read_u8()
        if byte > 1:
            raise DecodeError(f"flag byte 0x{byte:02x} is neither 0 nor 1")
        return true if byte else false

    return encode, read


FLAG = flag()


def seq(kind):
    """The kind of a tuple of values of one kind: a u64 count, then each value."""
    enc, read = kind
    return (lambda values: enc_u64(len(values)) + b"".join([enc(v) for v in values]),
            lambda r: tuple([read(r) for _ in range(r.read_u64())]))


def row(*kinds):
    """The kind of a fixed tuple, each value written as its own kind."""
    encoders, readers = zip(*kinds)
    return (lambda values: b"".join([enc(v) for enc, v in zip(encoders, values, strict=True)]),
            lambda r: tuple([read(r) for read in readers]))


def inline(cls):
    """The kind of a schema record written inline, as its kept encoding."""
    return attrgetter("encoded"), cls.decode


def nested(cls):
    """The kind of a schema record written as a byte string that its decoder
    must consume exactly. The bytes read are kept as the record's `encoded`:
    every kind reads strictly, so they are its canonical encoding."""

    def read(r: Reader):
        data = r.read_bytes()
        inner = Reader(data)
        rec = cls.decode(inner)
        inner.expect_end()
        rec.__dict__["encoded"] = data  # where `kept` keeps it
        return rec

    return (lambda rec: enc_bytes(rec.encoded)), read


def _refuse_set(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(rec) -> str:
    fields = ", ".join(f"{n}={getattr(rec, n)!r}" for n in rec._fields)
    return f"{rec.__class__.__qualname__}({fields})"


class _DataclassFields:
    """A record class's `__dataclass_fields__`, made on the first read from a
    dataclass with the same fields and defaults, so that dataclasses.fields,
    replace, asdict and is_dataclass take records. Only then is `dataclasses`
    imported: it and what it imports cost a CLI command about 8 ms."""

    def __get__(self, instance, owner):
        import dataclasses

        twin = dataclasses.make_dataclass(owner.__name__, [
            (n, object, dataclasses.field(default=owner.__dict__.get(n, dataclasses.MISSING)))
            for n in owner._fields])
        owner.__dataclass_fields__ = twin.__dataclass_fields__
        return twin.__dataclass_fields__


_DATACLASS_FIELDS = _DataclassFields()


@cache
def _init_template(n: int):
    """An `__init__` that sets n fields, named f0, f1, ... both as its
    parameters and as the constants it sets them under, compiled once per
    field count for `record` to rename: its code and its globals."""
    ns = {"_set": object.__setattr__}
    exec("\n".join([f"def __init__(_self{''.join(f', f{i}' for i in range(n))}):",
                    *[f" _set(_self, 'f{i}', f{i})" for i in range(n)], " pass"]), ns)
    return ns["__init__"].__code__, ns


def record(*names: str):
    """Class decorator for a frozen record: fields `names`, in order, each
    defaulting to the class attribute of its name if the class body sets
    one. Gives the class `_fields`, an `__init__` taking the fields by
    position or keyword, `__eq__` and `__hash__` on the tuple of field
    values, a `__repr__` of `Name(field=value, ...)`, `replace(**changes)`,
    and a `__setattr__` and `__delattr__` that refuse. Instances keep their
    fields and `kept` values in `__dict__`, so copy and pickle keep both.
    `__init__` is the template compiled for the number of fields, its
    parameter names and field-name constants swapped for the class's by
    `CodeType.replace`: construction costs what source written for the
    class would, and the import compiles no source per class, while a
    generic `*args` loop would double the cost of construction. `replace`
    is generic, as it runs only a few times per block."""

    def build(cls):
        for name in names:
            if not name.isidentifier() or name.startswith("_"):
                raise TypeError(f"{cls.__name__}: field name {name!r} is not a public identifier")
            if isinstance(cls.__dict__.get(name), kept):
                raise TypeError(f"{cls.__name__}.{name} is both a field and a kept value")
        if len(set(names)) != len(names):
            raise TypeError(f"{cls.__name__}: a field is named twice")
        defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        if any(n in cls.__dict__ for n in names[:len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        code, template_globals = _init_template(len(names))
        renamed = {f"f{i}": n for i, n in enumerate(names)}
        code = code.replace(co_varnames=("_self", *renamed.values()),
                            co_consts=tuple(renamed.get(c, c) if type(c) is str else c
                                            for c in code.co_consts))
        init = FunctionType(code, template_globals, "__init__", defaults or None)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        # the tuple of a record's field values
        values = (attrgetter(*names) if len(names) > 1
                  else lambda rec: tuple([getattr(rec, n) for n in names]))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        index = {n: i for i, n in enumerate(names)}

        def replace(self, /, **changes):
            fields = list(values(self))
            for name, value in changes.items():
                if name not in index:
                    raise TypeError(f"{cls.__name__}.replace() got an unexpected keyword "
                                    f"argument {name!r}")
                fields[index[name]] = value
            return cls(*fields)

        cls.__init__, cls.replace = init, replace
        cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, _repr
        cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
        cls._fields = names
        cls.__dataclass_fields__ = _DATACLASS_FIELDS
        return cls

    return build


def schema(tag: int | None, /, **kinds):
    """Class decorator for a frozen record whose fields are the keyword names,
    in order, each written as its kind: its canonical encoding is the tag
    byte, if any, then each field. Gives the class what `record` gives, its
    `TAG`, `encode()`, the same bytes as the kept `encoded`, and a static
    `decode(reader)` that checks the tag. All are built here, once; a kind
    that is not an (encoder, reader) pair fails at import."""
    for name, kind in kinds.items():
        if not (isinstance(kind, tuple) and len(kind) == 2 and all(map(callable, kind))):
            raise TypeError(f"field {name!r}: {kind!r} is not a kind, an (encoder, reader) pair")
    encoders = tuple((name, enc) for name, (enc, _) in kinds.items())
    readers = tuple(read for _, read in kinds.values())
    prefix = b"" if tag is None else bytes([tag])

    def build(cls):
        def encode(rec) -> bytes:
            return prefix + b"".join([enc(getattr(rec, name)) for name, enc in encoders])

        def decode(r: Reader):
            if tag is not None and (got := r.read_u8()) != tag:
                raise DecodeError(f"tag 0x{got:02x} is not {cls.__name__}'s 0x{tag:02x}")
            return cls(*[read(r) for read in readers])

        cls.TAG = tag
        cls.encode = encode
        cls.encoded = kept(encode)
        cls.encoded.__set_name__(cls, "encoded")
        cls.decode = staticmethod(decode)
        return record(*kinds)(cls)

    return build


# The one reader of outside input. A kind is called as kind(value, path) and
# returns the value read, or raises InputError naming the value's JSON path.
# In JSON a u64 is a JSON integer, never a string.

class InputError(ValueError):
    """An input value that breaks its rule: `<path>: must be <rule>, not
    <value>`, or `<path>: must be <rule>` when no value is given."""

    def __init__(self, path: str, rule: str, *value):
        got = f", not {reprlib.repr(value[0])}" if value else ""
        super().__init__(f"{path}: must be {rule}{got}" if path else f"must be {rule}{got}")


def _kind(rule: str, ok, convert=lambda value: value):
    def read(value, path: str):
        if not ok(value):
            raise InputError(path, rule, value)
        return convert(value)

    return read


# type() also refuses a bool
uint = _kind("a non-negative integer below 2**64", lambda v: type(v) is int and 0 <= v <= U64_MAX)
positive = _kind("a positive integer below 2**64", lambda v: type(v) is int and 0 < v <= U64_MAX)
probability = _kind("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1, float)
text = _kind("a string", lambda v: isinstance(v, str))


def hexbytes(n: int):
    """The kind of n bytes written in hex."""

    def read(value, path: str) -> bytes:
        try:
            if len(data := bytes.fromhex(value)) == n:
                return data
        except (TypeError, ValueError):  # not a string, or not hex
            pass
        raise InputError(path, f"{n} bytes of hex", value)

    return read


HASH_HEX = hexbytes(HASH_LEN)  # an id, digest or key


def list_of(kind, size: int | None = None):
    """The kind of a JSON list of values of one kind, `size` of them if given."""
    rule = "a JSON list" if size is None else f"a JSON list of {size} values"

    def read(value, path: str) -> list:
        if not isinstance(value, list) or size not in (None, len(value)):
            raise InputError(path, rule, value)
        return [kind(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return read


def obj(**fields):
    """The kind of a JSON object: a copy of it with each named field read by
    its kind. A field given as (kind, default) may be left out, or be that
    default itself (so `(uint, None)` also takes null). Keys it does not
    name are kept as they are."""

    def read(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise InputError(path, "a JSON object", value)
        out = dict(value)
        for key, spec in fields.items():
            kind, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
            at = f"{path}.{key}" if path else key
            got = value.get(key, default)
            if got is _REQUIRED:
                raise InputError(at, "given")
            out[key] = got if got is default else kind(got, at)
        return out

    return read


def record_json(rec) -> dict:
    """The JSON view of a record: its fields by name, in order, with byte
    strings in hex."""
    out = {}
    for name in rec._fields:
        value = getattr(rec, name)
        out[name] = value.hex() if isinstance(value, bytes) else value
    return out


def csv_table(header, rows) -> str:
    """An RFC-4180 CSV table: the header row, then the rows, each line
    ending in a newline."""
    import csv  # only CSV output needs it: a command that writes none does not import it

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()
