"""Declarative serialization base for Kubernetes-style API objects.

Every API type declares its fields once via :class:`Field`; the base class
derives the constructor behaviour, ``to_dict``/``from_dict`` (using the
Kubernetes camelCase wire names), deep copy, and structural equality.  The
wire format is plain dicts, which is what the simulated etcd stores — just
like real etcd stores JSON — so no object aliasing can leak between the
apiserver and its clients.

Serde is the kernel's hottest path (profiling the Fig. 10 stress run
puts ``from_dict``/``to_dict`` and their helpers at ~45% of total
interpreter time), so ``__init_subclass__`` compiles a specialized
``__init__``/``to_dict``/``from_dict`` per type — the field loop,
container dispatch, and default handling are resolved at class-creation
time, the way :mod:`dataclasses` builds ``__init__``.
"""


class Field:
    """One serializable field of an API type.

    Parameters
    ----------
    py_name:
        Attribute name on the Python object (snake_case).
    json_name:
        Wire name (camelCase).  Defaults to ``py_name`` converted to
        camelCase.
    type:
        Optional nested :class:`Serializable` subclass for object fields
        (or the element type for lists / the value type for maps).
    container:
        ``None`` for scalars/objects, ``"list"`` or ``"map"`` for
        collections.
    default:
        Immutable default value.
    default_factory:
        Callable producing a default (for mutable defaults).
    """

    __slots__ = ("py_name", "json_name", "type", "container", "default",
                 "default_factory")

    def __init__(self, py_name, json_name=None, type=None, container=None,
                 default=None, default_factory=None):
        self.py_name = py_name
        self.json_name = json_name or _to_camel(py_name)
        self.type = type
        self.container = container
        self.default = default
        self.default_factory = default_factory


def _to_camel(snake):
    head, *rest = snake.split("_")
    return head + "".join(part.capitalize() for part in rest)


class Serializable:
    """Base class implementing serde over a ``FIELDS`` declaration.

    Each subclass gets a generated keyword-only ``__init__`` (unknown
    fields raise ``TypeError``), ``to_dict`` and ``from_dict``.
    ``from_dict`` ignores unknown keys and returns ``None`` for ``None``.
    ``to_dict`` omits ``None`` values and empty collections, except that
    an empty collection whose field default is non-empty is emitted
    explicitly (a Namespace whose ``spec.finalizers`` were cleared must
    round-trip rather than resurrect the default).
    """

    FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _install_serde(cls)

    @classmethod
    def _wire_header(cls):
        """Constant ``(key, value)`` pairs prepended to ``to_dict`` output.

        Must be constant per *class* (it is evaluated once at
        class-creation time by the serde codegen).
        """
        return ()

    @classmethod
    def _field_index(cls):
        cached = cls.__dict__.get("_FIELD_INDEX")
        if cached is None:
            cached = {}
            for klass in reversed(cls.__mro__):
                for field in klass.__dict__.get("FIELDS", ()):
                    cached[field.py_name] = field
            cls._FIELD_INDEX = cached
        return cached

    def copy(self):
        """Deep copy via a wire round-trip."""
        return type(self).from_dict(self.to_dict())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self):
        name = getattr(getattr(self, "metadata", None), "name", None)
        if name is not None:
            return f"<{type(self).__name__} {name!r}>"
        return f"<{type(self).__name__} {self.to_dict()!r}>"


def fast_deep_copy(value):
    """Deep copy of a JSON-shaped value (dicts/lists/scalars).

    Much faster than :func:`copy.deepcopy` for wire dicts, which is what
    the store and the codecs shuffle around constantly.
    """
    if isinstance(value, dict):
        return {key: fast_deep_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [fast_deep_copy(item) for item in value]
    return value


def _dump(value):
    if isinstance(value, Serializable):
        return value.to_dict()
    if hasattr(value, "to_serialized"):
        return value.to_serialized()
    return value


# ---------------------------------------------------------------------------
# Per-class serde codegen
# ---------------------------------------------------------------------------

_MISSING = object()

# isinstance() of any of these implies _dump/_load are identity; checked
# first because the overwhelming majority of field values are scalars.
_SCALAR_TYPES = (str, int, float, bool)


class _SerdeCodegen:
    """Compiles specialized ``__init__``/``to_dict``/``from_dict``.

    The per-field dispatch (field iteration, container branching,
    default construction, nested-type probing) is resolved here once, at
    class-creation time, instead of on every call.
    """

    def __init__(self, cls):
        self.cls = cls
        self.ns = {
            "fast_deep_copy": fast_deep_copy,
            "_dump": _dump,
            "_MISSING": _MISSING,
            "_SCALAR_TYPES": _SCALAR_TYPES,
        }
        self._n = 0

    def const(self, prefix, value):
        self._n += 1
        name = f"_{prefix}{self._n}"
        self.ns[name] = value
        return name

    def compile(self, name, lines):
        source = "\n".join(lines)
        code = compile(source, f"<serde {self.cls.__name__}.{name}>", "exec")
        scope = {}
        exec(code, self.ns, scope)
        return scope[name]

    def default_expr(self, field):
        if field.default_factory is not None:
            return f"{self.const('df', field.default_factory)}()"
        if field.default is None:
            return "None"
        return self.const("dv", field.default)

    def gen_init(self, fields):
        lines = ["def __init__(self, **kwargs):",
                 "    d = self.__dict__",
                 "    pop = kwargs.pop"]
        for field in fields:
            lines.append(f"    v = pop({field.py_name!r}, _MISSING)")
            lines.append(f"    d[{field.py_name!r}] = "
                         f"{self.default_expr(field)} if v is _MISSING else v")
        lines += [
            "    if kwargs:",
            "        unknown = ', '.join(sorted(kwargs))",
            f"        raise TypeError({self.cls.__name__ + ': unknown fields: '!r}"
            f" + unknown)",
        ]
        return self.compile("__init__", lines)

    def load_expr(self, field, raw):
        ftype = field.type
        if ftype is None:
            # Untyped payloads are copied so a decoded object never
            # aliases the wire dict it was built from.
            return (f"(fast_deep_copy({raw}) if type({raw}) is dict"
                    f" or type({raw}) is list else {raw})")
        tname = self.const("ty", ftype)
        has_from_dict = hasattr(ftype, "from_dict")
        has_from_serialized = hasattr(ftype, "from_serialized")
        if has_from_dict and has_from_serialized:
            return (f"({tname}.from_dict({raw}) if isinstance({raw}, dict)"
                    f" else {tname}.from_serialized({raw}))")
        if has_from_dict:
            return (f"({tname}.from_dict({raw}) if isinstance({raw}, dict)"
                    f" else {raw})")
        if has_from_serialized:
            return f"{tname}.from_serialized({raw})"
        return raw

    def gen_from_dict(self, fields):
        lines = ["def from_dict(cls, data):",
                 "    if data is None:",
                 "        return None",
                 "    obj = cls.__new__(cls)",
                 "    d = obj.__dict__",
                 "    get = data.get"]
        for field in fields:
            if field.container == "list":
                expr = f"[{self.load_expr(field, 'item')} for item in raw]"
            elif field.container == "map":
                expr = (f"{{key: {self.load_expr(field, 'value')}"
                        f" for key, value in raw.items()}}")
            else:
                expr = self.load_expr(field, "raw")
            lines.append(f"    raw = get({field.json_name!r})")
            lines.append(f"    d[{field.py_name!r}] = "
                         f"{self.default_expr(field)} if raw is None"
                         f" else {expr}")
        lines.append("    return obj")
        return self.compile("from_dict", lines)

    def dump_expr(self, field, value):
        if field.type is None:
            return (f"({value} if isinstance({value}, _SCALAR_TYPES)"
                    f" else _dump({value}))")
        return f"_dump({value})"

    def gen_to_dict(self, fields):
        header_items = []
        for key, value in self.cls._wire_header():
            if value is None or isinstance(value, _SCALAR_TYPES):
                header_items.append(f"{key!r}: {value!r}")
            else:
                header_items.append(f"{key!r}: {self.const('wh', value)}")
        lines = ["def to_dict(self):",
                 "    out = {" + ", ".join(header_items) + "}"]
        for field in fields:
            lines.append(f"    v = self.{field.py_name}")
            if field.container in ("list", "map"):
                if field.container == "list":
                    expr = f"[{self.dump_expr(field, 'item')} for item in v]"
                    empty = "[]"
                else:
                    expr = (f"{{k: {self.dump_expr(field, 'item')}"
                            f" for k, item in v.items()}}")
                    empty = "{}"
                lines.append("    if v:")
                lines.append(f"        out[{field.json_name!r}] = {expr}")
                # An explicit empty collection is emitted only when the
                # field's default is non-empty (see Serializable); that
                # predicate is constant per field, so it is resolved here
                # at class-creation time.
                if field.default_factory is not None \
                        and field.default_factory():
                    lines.append("    elif v is not None:")
                    lines.append(f"        out[{field.json_name!r}] = {empty}")
            else:
                lines.append("    if v is not None:")
                lines.append(f"        out[{field.json_name!r}] = "
                             f"{self.dump_expr(field, 'v')}")
        lines.append("    return out")
        return self.compile("to_dict", lines)


def _install_serde(cls):
    gen = _SerdeCodegen(cls)
    fields = tuple(cls._field_index().values())
    cls.__init__ = gen.gen_init(fields)
    cls.to_dict = gen.gen_to_dict(fields)
    cls.from_dict = classmethod(gen.gen_from_dict(fields))
