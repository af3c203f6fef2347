"""Exception types shared across the package, the integer check exact_int,
and Record, the base of the package's immutable records.

The CLI maps these onto exit codes: InputError -> 2,
ModelInconsistencyError -> 3, InternalInvariantError -> 4.
"""


class InputError(ValueError):
    """User-supplied data is malformed or out of range."""


class ModelInconsistencyError(ValueError):
    """Analytic data contradicts a constraint it is required to satisfy."""


class InternalInvariantError(RuntimeError):
    """A computed quantity violates an identity that must always hold."""


def exact_int(x):
    """x as an int if it is an integer of any numeric type (3.0, Fraction(2)
    and True pass); InputError where int(x) would truncate, as on 2.5."""
    if type(x) is int:
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError("%r is not an integer" % (x,))


class Record:
    """An immutable record of named fields.

    A subclass declares its fields as annotations, in order, and a field
    with a class-level value has that default; the names land in _fields.
    A record equals a record of its own type with equal fields, hashes and
    prints by them, and refuses assignment.  The fields live in the
    instance __dict__, so functools.cached_property works on a record.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own, from Python 3.10 on
        cls._fields += own
        cls._defaults = {**cls._defaults,
                         **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        if own and "__init__" not in vars(cls):
            cls.__init__ = _record_init(cls)

    def _values(self):
        values = vars(self)
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


def _record_init(cls):
    """The __init__ of a record class: one parameter per field, in order,
    with its default, and one update of the instance __dict__.  It is
    compiled once per class, as collections.namedtuple compiles its
    __new__, so building a record is one plain call, and a missing,
    repeated or unknown field is Python's own TypeError."""
    fields, defaults = cls._fields, cls._defaults
    params = ", ".join(name if name not in defaults else "%s=_defaults[%r]" % (name, name)
                       for name in fields)
    values = ", ".join("%r: %s" % (name, name) for name in fields)
    namespace = {"_defaults": defaults}
    exec("def __init__(self, %s):\n    self.__dict__.update({%s})\n" % (params, values),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = "%s.__init__" % cls.__qualname__
    return init
