"""Frozen value records, and the 16 hex digits that name a record's JSON.

Importing the standard library's dataclass module loads ``inspect``,
``ast``, ``dis`` and ``tokenize`` (7-10 ms of each CLI process on a 2-vCPU
Xeon, where a ``count`` op takes about 130 ms), so the value types are made
by ``record`` instead, with one ``exec`` per class.

Modules, ledgers and reports are named by ``digest16``, with the
interpreter's own SHA-256: the standard hashing module loads OpenSSL's
libcrypto, about 3.6 MB of peak RSS and 4 ms of each CLI process on that
Xeon, to hash a few hundred bytes at a time (CPython's ``random`` does the
same for its SHA-512).
"""

from __future__ import annotations

try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:  # an interpreter built without them
        from hashlib import sha256


def digest16(*pieces) -> str:
    """The first 16 hex digits of the SHA-256 of the pieces' concatenation
    (bytes-like objects), hashed piece by piece."""
    h = sha256()
    for piece in pieces:
        h.update(piece)
    return h.hexdigest()[:16]


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot "
                         f"{'assign' if value else 'delete'} {name!r}")


def _repr(self):
    return "%s(%s)" % (type(self).__qualname__, ", ".join(
        f"{name}={getattr(self, name)!r}" for name in self._fields))


def record(cls):
    """`cls` with its annotated fields, in order, as a frozen record: an
    __init__ taking them positionally or by keyword (a class attribute is
    the field's default) that ends by calling __post_init__, if any;
    __eq__ against the same class only; __hash__ of the field tuple, unless
    the class defines its own; __repr__; __reduce__; and the names as
    `_fields`.  Assignment and deletion raise AttributeError; the fields are
    kept in the instance __dict__, as is a value that __post_init__ sets for
    every use or that a cached_property writes on the first of some uses.
    Pickle and copy rebuild a record from its field values alone, through
    __init__ and __post_init__, so no such value crosses over: a spec's
    cached hash is the loading process's (a str's hash is seeded per
    process), and a ledger is validated again."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=D[{n!r}]" if n in cls.__dict__ else n for n in names)
    row = "".join(f"self.{n}," for n in names)
    src = "\n".join([
        f"def __init__(self, {params}):",
        *(f" set(self, {n!r}, {n})" for n in names),
        " self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        " if other.__class__ is not self.__class__: return NotImplemented",
        f" return ({row}) == ({row.replace('self.', 'other.')})",
        f"def __hash__(self): return hash(({row}))",
        f"def __reduce__(self): return self.__class__, ({row})"])
    methods = {}
    exec(src, {"D": cls.__dict__, "set": object.__setattr__}, methods)
    if "__hash__" in cls.__dict__:  # NormSpec caches its own hash
        del methods["__hash__"]
    for name, fn in methods.items():  # a bad call's TypeError names cls
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls._fields, cls.__repr__ = names, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
