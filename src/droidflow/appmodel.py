"""In-memory model of a disassembled app: classes, methods, components.

Built either from smali class files plus a decoded manifest, or from the
JSON fixture format (same fields, no smali text involved).
"""

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from .dalvik import CODE_WIDTH, INVOKE_CODES, code_of

COMPONENT_CATEGORIES = ("activity", "service", "receiver", "provider")


class EmptyAppError(ValueError):
    """No class of the app could be parsed."""


class MalformedIrError(ValueError):
    """An IR document lacks a key every entry of its kind must have, or an
    entry has the wrong shape (a number where an object belongs, say)."""


@dataclass
class MethodDef:
    """A method and its body. Each body row is a plain tuple
    (offset, code, operands, invoked): the offset in code units, the int
    opcode value, the operand strings as a tuple, and the invoked method's
    signature for an invoke (None otherwise). smali.parse_smali_class and
    app_from_ir build the rows directly."""

    owner: str
    name: str
    descriptor: str
    flags: frozenset
    body: list
    is_user_defined: bool = True

    @property
    def method_id(self) -> str:
        return f"{self.owner}->{self.name}{self.descriptor}"


@dataclass
class ClassDef:
    name: str
    superclass: str
    interfaces: tuple
    methods: list

    def find_method(self, name: str, descriptor: str | None = None):
        for m in self.methods:
            if m.name == name and (descriptor is None or m.descriptor == descriptor):
                return m
        return None


@dataclass(frozen=True)
class IntentFilter:
    actions: frozenset
    categories: frozenset


@dataclass
class Component:
    path_name: str
    category: str
    intent_filters: list
    exported: bool = False

    def __post_init__(self):
        if self.category not in COMPONENT_CATEGORIES:
            raise ValueError(f"bad component category: {self.category!r}")

    def declares_action(self, action: str) -> bool:
        return any(action in f.actions for f in self.intent_filters)


@dataclass
class AppModel:
    app_id: str
    classes: dict
    components: list
    metadata: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def is_user_defined(self, class_name: str) -> bool:
        return class_name in self.classes

    def lookup_method(self, owner: str, name: str, descriptor: str | None = None):
        """Find the defining MethodDef, walking up user-defined superclasses."""
        cls = self.classes.get(owner)
        seen = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            m = cls.find_method(name, descriptor)
            if m is not None:
                return m
            cls = self.classes.get(cls.superclass)
        return None

    def methods(self):
        """All user-defined methods in deterministic (class, definition) order."""
        for name in sorted(self.classes):
            yield from self.classes[name].methods

    def get_method(self, method_id: str):
        return self.lookup_method(*split_signature(method_id))


def split_signature(signature: str):
    """Split 'Lpkg/Cls;->name(args)ret' into (owner, name, descriptor)."""
    owner, _, rest = signature.partition("->")
    name, _, descriptor = rest.partition("(")
    return owner, name, "(" + descriptor


# JSON fixture format: a dict mirroring AppModel field-for-field. Offsets are
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
        class_name = _required(cd, "name", "class")
        methods = []
        for md in cd.get("methods", []):
            method_name = _required(md, "name", f"method of {class_name}")
            rows = []
            offset = 0
            # One handler for the whole body, not _required per instruction:
            # this loop is the hot path of loading an IR app.
            try:
                for ins in md.get("body", []):
                    code = code_of(ins["mnemonic"])
                    invoked = ins.get("invoked_method")
                    if code in INVOKE_CODES and invoked is None:
                        raise ValueError(
                            f"invoke without invoked_method in {class_name}.{method_name}"
                        )
                    rows.append((offset, code, tuple(ins.get("operands", ())), invoked))
                    offset += CODE_WIDTH[code]
            except KeyError:
                raise MalformedIrError(
                    f"instruction of {class_name}.{method_name} without 'mnemonic'"
                ) from None
            methods.append(
                MethodDef(
                    owner=class_name,
                    name=method_name,
                    descriptor=_required(md, "descriptor", f"method {class_name}.{method_name}"),
                    flags=frozenset(md.get("flags", ())),
                    body=rows,
                    is_user_defined=md.get("is_user_defined", True),
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
            superclass=cd.get("superclass", "Ljava/lang/Object;"),
            interfaces=tuple(cd.get("interfaces", ())),
            methods=methods,
        )
    components = [
        Component(
            path_name=_required(c, "path_name", "component"),
            category=_required(c, "category", "component"),
            intent_filters=[
                IntentFilter(frozenset(f.get("actions", ())), frozenset(f.get("categories", ())))
                for f in c.get("intent_filters", ())
            ],
            exported=c.get("exported", False),
        )
        for c in data.get("components", [])
    ]
    app = AppModel(
        app_id=data.get("app_id", "app"),
        classes=classes,
        components=components,
        metadata=dict(data.get("metadata", {})),
    )
    _check_links(app)
    return app


def _required(entry: dict, key: str, what: str):
    try:
        return entry[key]
    except KeyError:
        raise MalformedIrError(f"{what} without {key!r}") from None


def _check_links(app: AppModel):
    """Record a diagnostic for every unresolvable user-defined call target."""
    for method in app.methods():
        for _, _, _, invoked in method.body:
            if invoked is None:
                continue
            owner, name, descriptor = split_signature(invoked)
            if app.is_user_defined(owner) and app.lookup_method(owner, name, descriptor) is None:
                app.diagnostics.append(f"unresolved call {invoked} from {method.method_id}")


def load_app(root) -> AppModel:
    """Load an app from a directory (or zip of one).

    Expected layout: AndroidManifest.xml plus smali/**/*.smali, or an ir.json
    fixture. Optional meta.json supplies {"timestamp": ..., "label": ...}.
    Individual class parse failures become diagnostics; only a fully
    class-less app is fatal.
    """
    from .manifest import parse_manifest
    from .smali import SmaliSyntaxError, parse_smali_class

    root = Path(root)
    if root.is_file() and root.suffix == ".zip":
        return _load_zip(root)

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
            except (SmaliSyntaxError, UnknownOpcodeError) as exc:
                diagnostics.append(f"{path.relative_to(root)}: {exc}")
        if not classes:
            raise EmptyAppError(f"no class parsed under {root}")
        app = AppModel(root.name, classes, components, diagnostics=diagnostics)
        _check_links(app)

    meta_path = root / "meta.json"
    if meta_path.exists():
        app.metadata.update(json.loads(meta_path.read_text()))
    return app


def _load_zip(path: Path) -> AppModel:
    import tempfile

    with zipfile.ZipFile(path) as zf, tempfile.TemporaryDirectory() as tmp:
        zf.extractall(tmp)
        entries = list(Path(tmp).iterdir())
        root = entries[0] if len(entries) == 1 and entries[0].is_dir() else Path(tmp)
        app = load_app(root)
        app.app_id = path.stem
        return app
