"""In-memory model of a disassembled app: classes, methods, components.

Built either from smali class files plus a decoded manifest, or from the
JSON fixture format (same fields, no smali text involved).
"""

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path

from .dalvik import INVOKE_CODES, MNEMONIC_TO_CODE, WIDTH_TABLE, code_of
from .tables import InputError

COMPONENT_CATEGORIES = ("activity", "service", "receiver", "provider")


class EmptyAppError(InputError):
    """No class of the app could be parsed."""


class MalformedIrError(ValueError):
    """An IR document lacks a key every entry of its kind must have, or an
    entry has the wrong shape (a number where an object belongs, say)."""


@dataclass
class MethodDef:
    """A method and its body, stored as columns, as the Dalvik executable
    format stores a method as one array of code units:

    - body: bytes, the opcode value of each instruction in order, so
      len(body) counts instructions and body[i] is instruction i's code;
    - operands: tuple of str, instruction i's operand text as written (an
      IR instruction's operands joined by ", "), split with
      smali._split_operands where it is read;
    - calls: tuple of (index, offset, invoked), one per invoke in body
      order: its body index, its offset in code units and the invoked
      method's signature.

    An instruction's offset is the sum of CODE_WIDTH over the codes before
    it (offsets(body)). smali.parse_smali_class and app_from_ir build the
    columns directly."""

    owner: str
    name: str
    descriptor: str
    flags: frozenset
    body: bytes
    operands: tuple
    calls: tuple

    @property
    def method_id(self) -> str:
        return f"{self.owner}->{self.name}{self.descriptor}"


@lru_cache(maxsize=256)
def flag_set(flags: tuple) -> frozenset:
    """The flags of a method as a frozenset shared by every method with the
    same flags, so that loaded methods hold no set each for the GC to track."""
    return frozenset(flags)


def offsets(body: bytes) -> list:
    """The offset in code units of each instruction of a body column."""
    return list(accumulate(body[:-1].translate(WIDTH_TABLE), initial=0)) if body else []


@dataclass
class ClassDef:
    name: str
    superclass: str
    interfaces: tuple
    methods: list


@dataclass
class Component:
    path_name: str
    category: str
    actions: frozenset           # every action of the component's intent filters

    def __post_init__(self):
        if self.category not in COMPONENT_CATEGORIES:
            raise ValueError(f"bad component category: {self.category!r}")


@dataclass
class AppModel:
    app_id: str
    classes: dict
    components: list
    metadata: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    # signature -> get_method's answer, filled on first ask
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_user_defined(self, class_name: str) -> bool:
        return class_name in self.classes

    @cached_property
    def methods_by_id(self) -> dict:
        """The app's one method table: method id -> MethodDef, in id order."""
        table = {m.method_id: m for c in self.classes.values() for m in c.methods}
        return dict(sorted(table.items()))

    def lookup_method(self, owner: str, name: str, descriptor: str | None = None):
        """Find the defining MethodDef, walking up user-defined superclasses;
        without a descriptor, the first method of that name in a class."""
        cls = self.classes.get(owner)
        seen = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            m = (next((m for m in cls.methods if m.name == name), None) if descriptor is None
                 else self.methods_by_id.get(f"{cls.name}->{name}{descriptor}"))
            if m is not None:
                return m
            cls = self.classes.get(cls.superclass)
        return None

    def get_method(self, signature: str):
        """The MethodDef a call of signature lands in, its owner's own or an
        inherited one, or None; each distinct signature is resolved once."""
        if signature not in self._resolved:
            self._resolved[signature] = self.lookup_method(*split_signature(signature))
        return self._resolved[signature]


def split_signature(signature: str):
    """Split 'Lpkg/Cls;->name(args)ret' into (owner, name, descriptor)."""
    owner, _, rest = signature.partition("->")
    name, _, descriptor = rest.partition("(")
    return owner, name, "(" + descriptor


# JSON fixture format: a dict mirroring AppModel, with one object per
# instruction and a component's actions listed per intent filter. Offsets are
# recomputed from instruction widths, so fixtures only list mnemonics.

def app_from_ir(data: dict) -> AppModel:
    try:
        return _app_from_ir(data)
    except (TypeError, AttributeError) as exc:
        # Reading a list where an object belongs, or a number where a list
        # does, fails in whatever operation meets it first.
        raise MalformedIrError(f"wrongly shaped IR document: {exc}") from None


def _app_from_ir(data: dict) -> AppModel:
    classes = {}
    for cd in data.get("classes", []):
        class_name = _string(cd, "name", "class")
        methods = []
        for md in cd.get("methods", []):
            method_name = _string(md, "name", f"method of {class_name}")
            codes, operands, calls, offset = bytearray(), [], [], 0
            # One handler for the whole body, not _string or code_of per instruction:
            # this loop is the hot path of loading an IR app.
            try:
                for ins in md.get("body", []):
                    code = MNEMONIC_TO_CODE[ins["mnemonic"]]
                    invoked = ins.get("invoked_method")
                    if (invoked is not None) != (code in INVOKE_CODES):
                        raise ValueError(
                            f"{ins['mnemonic']} with{'out' if invoked is None else ''} "
                            f"invoked_method in {class_name}.{method_name}"
                        )
                    if invoked is not None:
                        if not isinstance(invoked, str):
                            raise MalformedIrError(f"invoke in {class_name}.{method_name}: "
                                                   "'invoked_method' is not a string")
                        calls.append((len(codes), offset, invoked))
                    codes.append(code)
                    operands.append(ins.get("operands", ()))
                    offset += WIDTH_TABLE[code]
            except KeyError:
                if "mnemonic" in ins:
                    code_of(ins["mnemonic"])   # raises UnknownOpcodeError
                raise MalformedIrError(
                    f"instruction of {class_name}.{method_name} without 'mnemonic'"
                ) from None
            what = f"method {class_name}.{method_name}"
            # join checks a list's items; a string or an object, whose
            # characters or keys it would join, is checked here, once per body
            if not {str, dict}.isdisjoint(map(type, operands)):
                raise MalformedIrError(f"{what}: 'operands' is not a list of strings")
            methods.append(
                MethodDef(
                    owner=class_name,
                    name=method_name,
                    descriptor=_string(md, "descriptor", what),
                    flags=flag_set(_strings(md, "flags", what)),
                    body=bytes(codes),
                    operands=tuple(map(", ".join, operands)),
                    calls=tuple(calls),
                )
            )
        seen = set()
        for m in methods:
            key = (m.name, m.descriptor)
            if key in seen:
                raise ValueError(f"duplicate method {m.name}{m.descriptor} in {class_name}")
            seen.add(key)
        classes[class_name] = ClassDef(
            name=class_name,
            superclass=_string(cd, "superclass", f"class {class_name}", "Ljava/lang/Object;"),
            interfaces=_strings(cd, "interfaces", f"class {class_name}"),
            methods=methods,
        )
    components = [
        Component(
            path_name=_string(c, "path_name", "component"),
            category=_string(c, "category", "component"),
            actions=frozenset(a for f in c.get("intent_filters", ())
                              for a in _strings(f, "actions", "intent filter")),
        )
        for c in data.get("components", [])
    ]
    return AppModel(
        app_id=data.get("app_id", "app"),
        classes=classes,
        components=components,
        metadata=dict(data.get("metadata", {})),
    )


def _string(entry: dict, key: str, what: str, default: str | None = None) -> str:
    """entry[key], which must be a string; default if the key is absent and
    a default is given."""
    value = entry.get(key, default)
    if value is None:
        raise MalformedIrError(f"{what} without {key!r}")
    if not isinstance(value, str):
        raise MalformedIrError(f"{what}: {key!r} is not a string")
    return value


def _strings(entry: dict, key: str, what: str) -> tuple:
    """entry[key] as a tuple, () if the key is absent; it must be a list of
    strings, not a string or an object, whose characters or keys a tuple
    would hold."""
    value = entry.get(key, ())
    if isinstance(value, (str, dict)) or not all(isinstance(v, str) for v in value):
        raise MalformedIrError(f"{what}: {key!r} is not a list of strings")
    return tuple(value)


def load_app(root) -> AppModel:
    """Load an app from a directory.

    Expected layout: AndroidManifest.xml plus smali/**/*.smali, or an ir.json
    fixture. Optional meta.json supplies {"timestamp": ..., "label": ...}.
    A class file that cannot be read, decoded or parsed becomes a
    diagnostic naming its path; only a fully class-less app is fatal.
    """
    from .manifest import parse_manifest
    from .smali import SmaliSyntaxError, parse_smali_class

    root = Path(root)
    ir_path = root / "ir.json"
    if ir_path.exists():
        app = app_from_ir(json.loads(ir_path.read_text()))
        app.app_id = root.name
    else:
        components = []
        manifest_path = root / "AndroidManifest.xml"
        if manifest_path.exists():
            components = parse_manifest(manifest_path.read_bytes())
        classes = {}
        diagnostics = []
        from .dalvik import UnknownOpcodeError

        for path in sorted((root / "smali").rglob("*.smali")):
            try:
                cd = parse_smali_class(path.read_text())
                classes[cd.name] = cd
            except (SmaliSyntaxError, UnknownOpcodeError, UnicodeDecodeError, OSError) as exc:
                diagnostics.append(f"{path.relative_to(root)}: {exc}")
        if not classes:
            raise EmptyAppError(f"no class parsed under {root}")
        app = AppModel(root.name, classes, components, diagnostics=diagnostics)

    meta_path = root / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path.name} is not a JSON object")
        app.metadata.update(meta)
    return app
