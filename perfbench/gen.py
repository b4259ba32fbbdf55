"""Seeded generator of benchmark apps, and the record of what each app must yield.

An app is first built as a small abstract model (classes, methods,
instruction lists, manifest components). It is then written to disk either
as an ``ir.json`` fixture or as smali class files plus a decoded
``AndroidManifest.xml``. ``analyze`` derives the app's record from the model
alone, following the static-analysis rules the paper describes:

- entry points are lifecycle methods and listener callbacks of the declared
  components, found through the superclass chain;
- virtual and interface calls dispatch by class hierarchy analysis;
- listener classes created before a ``set*Listener``/``register*`` call in
  reachable code add their callbacks as entry points, until nothing changes;
- intent sends add ICC edges to the receiving component's entry method;
- a call trace is a simple path from an entry to a critical-API call site,
  one per (path, call site), at most ``cap`` per entry.

The record holds the reachable methods, the per-entry trace counts, the
planted critical APIs and the opcode-sequence length of every trace. The
generator never imports droidflow: the benchmark compares droidflow's
outputs with this record.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

OBJECT = "Ljava/lang/Object;"
ACTIVITY = "Landroid/app/Activity;"
SERVICE = "Landroid/app/Service;"
RECEIVER = "Landroid/content/BroadcastReceiver;"
CLICK_LISTENER = "Landroid/view/View$OnClickListener;"

# Framework conventions: lifecycle methods per component category, listener
# callback names, and the calls that hand an Intent to the framework.
LIFECYCLE = {
    "activity": ("onCreate", "onStart", "onResume", "onPause", "onStop", "onRestart", "onDestroy"),
    "service": ("onCreate", "onStartCommand", "onBind", "onDestroy"),
    "receiver": ("onReceive",),
    "provider": ("onCreate",),
}
CALLBACKS = (
    "onClick", "onLongClick", "onTouch", "onKey", "onFocusChange",
    "onItemClick", "onItemLongClick", "onItemSelected", "onCheckedChanged",
    "onMenuItemClick", "onPreferenceClick", "onPreferenceChange",
    "onEditorAction", "onScroll", "onScrollStateChanged", "onPageSelected",
    "onLocationChanged", "onSensorChanged", "onCompletion", "onPrepared",
    "run", "handleMessage", "onDoubleTap", "onFling", "onShake",
)
INTENT_SENDERS = frozenset({
    "startActivity", "startActivityForResult", "startService", "bindService",
    "sendBroadcast", "sendOrderedBroadcast",
})
REGISTER_RE = re.compile(r"^(set\w*Listener|register\w+)$")

CRITICAL_CALLS = (
    ("invoke-virtual",
     "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;Ljava/lang/String;"
     "Ljava/lang/String;Landroid/app/PendingIntent;Landroid/app/PendingIntent;)V"),
    ("invoke-virtual", "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"),
    ("invoke-virtual", "Ljava/lang/Runtime;->exec(Ljava/lang/String;)Ljava/lang/Process;"),
    ("invoke-virtual", "Landroid/location/LocationManager;->getLastKnownLocation("
                       "Ljava/lang/String;)Landroid/location/Location;"),
    ("invoke-virtual", "Ljavax/crypto/Cipher;->doFinal([B)[B"),
    ("invoke-static", "Ljava/lang/System;->loadLibrary(Ljava/lang/String;)V"),
)
CRITICAL_SET = frozenset(sig for _, sig in CRITICAL_CALLS)
BENIGN_CALLS = (
    ("invoke-static", "Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I"),
    ("invoke-virtual", "Ljava/lang/StringBuilder;->toString()Ljava/lang/String;"),
    ("invoke-virtual", "Landroid/widget/TextView;->setText(Ljava/lang/CharSequence;)V"),
)
FILLER = (
    ("const/4", ("v0", "0x1")),
    ("const/16", ("v1", "0x20")),
    ("move", ("v2", "v0")),
    ("add-int/2addr", ("v0", "v1")),
    ("iget", ("v3", "p0", "Lapp/State;->count:I")),
    ("iput", ("v3", "p0", "Lapp/State;->count:I")),
    ("sget-object", ("v4", "Lapp/State;->tag:Ljava/lang/String;")),
    ("const-string", ("v5", '"status"')),
    ("mul-int/2addr", ("v0", "v1")),
    ("int-to-long", ("v6", "v0")),
    ("new-instance", ("v7", "Ljava/lang/StringBuilder;")),
    ("move-result", ("v0",)),
    ("if-eqz", ("v0", ":cond_0")),
    ("aget", ("v1", "v2", "v0")),
)
INVOKE_OPCODES = frozenset(range(0x6E, 0x73)) | frozenset(range(0x74, 0x79))


@dataclass
class Ins:
    mnemonic: str
    operands: tuple = ()

    @property
    def target(self):
        return self.operands[-1] if self.mnemonic.startswith("invoke") else None


@dataclass
class Method:
    owner: str
    name: str
    body: list
    descriptor: str = "()V"
    flags: tuple = ("public",)

    @property
    def mid(self) -> str:
        return f"{self.owner}->{self.name}{self.descriptor}"


@dataclass
class Cls:
    name: str
    superclass: str = OBJECT
    interfaces: tuple = ()
    methods: list = field(default_factory=list)
    interface: bool = False

    def find(self, name, descriptor=None):
        for m in self.methods:
            if m.name == name and (descriptor is None or m.descriptor == descriptor):
                return m
        return None


@dataclass
class Comp:
    cls: str
    category: str
    actions: tuple = ()


@dataclass
class App:
    app_id: str
    package: str                # dotted, e.g. com.bench.a0
    label: str                  # "benign" | "malicious"
    timestamp: str
    classes: dict = field(default_factory=dict)
    components: list = field(default_factory=list)

    def add(self, cls: Cls) -> Cls:
        self.classes[cls.name] = cls
        return cls


def invoke(kind, target, regs="{v0}") -> Ins:
    return Ins(kind, (regs, target))


def filler(rng, count, calls=True) -> list:
    """`count` straight-line instructions; some are benign platform calls."""
    body = []
    for _ in range(count):
        if calls and rng.random() < 0.08:
            kind, sig = BENIGN_CALLS[int(rng.integers(0, len(BENIGN_CALLS)))]
            body.append(invoke(kind, sig))
        else:
            mnemonic, operands = FILLER[int(rng.integers(0, len(FILLER)))]
            body.append(Ins(mnemonic, operands))
    return body


def split_sig(sig: str):
    owner, _, rest = sig.partition("->")
    name, _, desc = rest.partition("(")
    return owner, name, "(" + desc


# --- the record -----------------------------------------------------------------

@dataclass
class Record:
    app_id: str
    label: str
    methods: int
    instructions: int
    entries: list               # sorted entry method ids
    reachable: list             # sorted reachable method ids
    icc_edges: list             # sorted [sender, receiver] pairs
    entry_traces: dict          # entry id -> trace count, capped
    critical_apis: list         # sorted critical APIs on some trace
    seq_lengths: list           # sorted opcode-sequence length of every trace
    search_visits: int          # search calls the uncapped depth-first walk makes

    @property
    def trace_count(self) -> int:
        return sum(self.entry_traces.values())

    def to_json(self) -> dict:
        return dict(self.__dict__)


class _Model:
    """Class-hierarchy facts and call resolution over an App."""

    def __init__(self, app: App):
        self.app = app
        self.classes = app.classes
        self.subclasses = {}
        self.implementers = {}
        for name in sorted(self.classes):
            c = self.classes[name]
            self.subclasses.setdefault(c.superclass, []).append(name)
            for iface in c.interfaces:
                self.implementers.setdefault(iface, []).append(name)
        self.methods = {m.mid: m for c in self.classes.values() for m in c.methods}

    def lookup(self, owner, name, descriptor=None):
        seen = set()
        c = self.classes.get(owner)
        while c is not None and c.name not in seen:
            seen.add(c.name)
            m = c.find(name, descriptor)
            if m is not None:
                return m
            c = self.classes.get(c.superclass)
        return None

    def subtree(self, name):
        out, stack = [name], list(self.subclasses.get(name, ()))
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(self.subclasses.get(c, ()))
        return out

    def resolve(self, ins: Ins):
        """Method ids an invoke may reach, sorted."""
        owner, name, desc = split_sig(ins.target)
        found = {}
        if ins.mnemonic.startswith(("invoke-virtual", "invoke-interface")):
            m = self.lookup(owner, name, desc)
            if m is not None:
                found[m.mid] = m
            roots = set(self.subtree(owner))
            for impl in self.implementers.get(owner, ()):
                roots.update(self.subtree(impl))
            for cname in roots:
                c = self.classes.get(cname)
                m = c.find(name, desc) if c is not None else None
                if m is not None:
                    found[m.mid] = m
        elif ins.mnemonic.startswith("invoke-super"):
            parent = self.classes[owner].superclass if owner in self.classes else owner
            m = self.lookup(parent, name, desc) or self.lookup(owner, name, desc)
            if m is not None:
                found[m.mid] = m
        else:
            m = self.lookup(owner, name, desc)
            if m is not None:
                found[m.mid] = m
        return sorted(found)

    def call_sites(self, mid):
        """[(instruction index, sorted target ids)] for user-defined targets."""
        out = []
        for i, ins in enumerate(self.methods[mid].body):
            if ins.target is None:
                continue
            targets = self.resolve(ins)
            if targets:
                out.append((i, targets))
        return out

    def is_boundary(self, ins: Ins) -> bool:
        target = ins.target
        if target is None:
            return False
        return target.partition("->")[0] in self.classes or split_sig(target)[1] in INTENT_SENDERS

    def intent_targets(self, method: Method, index: int):
        """Components addressed by the intent send at body[index]."""
        body = method.body
        start = 0
        for i in range(index - 1, -1, -1):
            if self.is_boundary(body[i]):
                start = i + 1
                break
        by_name = {c.cls: c for c in self.app.components}
        explicit, actions = set(), []
        for ins in body[start:index + 1]:
            for op in ins.operands:
                if op in by_name:
                    explicit.add(op)
                for s in re.findall(r'"([^"]*)"', op):
                    cls = "L" + s.replace(".", "/") + ";"
                    if cls in by_name:
                        explicit.add(cls)
                    else:
                        actions.append(s)
        if explicit:
            return [by_name[n] for n in sorted(explicit)]
        return sorted((c for c in self.app.components if set(c.actions) & set(actions)),
                      key=lambda c: c.cls)


def analyze(app: App, cap: int = 256, max_depth: int = 64) -> Record:
    """The record droidflow's extraction must reproduce for `app`."""
    model = _Model(app)
    sites = {mid: model.call_sites(mid) for mid in model.methods}

    entries = set()
    for comp in sorted(app.components, key=lambda c: c.cls):
        for name in LIFECYCLE[comp.category] + CALLBACKS:
            m = model.lookup(comp.cls, name)
            if m is not None:
                entries.add(m.mid)

    def closure(roots):
        seen, stack = set(roots), list(roots)
        while stack:
            for _, targets in sites[stack.pop()]:
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        return seen

    reachable = closure(entries)
    while True:
        found = set()
        for mid in reachable:
            body = model.methods[mid].body
            for i, ins in enumerate(body):
                if ins.target is None or not REGISTER_RE.match(split_sig(ins.target)[1]):
                    continue
                for prior in body[:i]:
                    if prior.mnemonic not in ("new-instance", "const-class"):
                        continue
                    for op in prior.operands:
                        if op in app.classes:
                            found.update(m.mid for m in app.classes[op].methods
                                         if m.name in CALLBACKS)
        if found <= entries:
            break
        entries |= found
        reachable = closure(entries)

    icc = set()
    for mid in sorted(reachable):
        method = model.methods[mid]
        for i, ins in enumerate(method.body):
            if ins.target is None or split_sig(ins.target)[1] not in INTENT_SENDERS:
                continue
            for comp in model.intent_targets(method, i):
                name = "onReceive" if comp.category == "receiver" else "onCreate"
                recv = model.lookup(comp.cls, name)
                if recv is None:
                    continue
                icc.add((mid, recv.mid))
                if recv.mid not in reachable:
                    entries.add(recv.mid)
                    reachable = closure(entries)

    # Paths: the planted call graphs are acyclic, so every path is simple and
    # counts compose per method. Memoized per method id.
    counts, lengths, visits, depth = {}, {}, {}, {}
    active = set()

    def walk(mid):
        if mid in counts:
            return
        if mid in active:
            raise ValueError(f"generated call graph has a cycle through {mid}")
        active.add(mid)
        body = model.methods[mid].body
        lens = Counter(i + 1 for i, ins in enumerate(body) if ins.target in CRITICAL_SET)
        n, v, d = sum(lens.values()), 1, 1
        for i, targets in sites[mid]:
            for t in targets:
                walk(t)
                n += counts[t]
                v += visits[t]
                d = max(d, 1 + depth[t])
                for length, k in lengths[t].items():
                    lens[i + 1 + length] += k
        active.discard(mid)
        counts[mid], lengths[mid], visits[mid], depth[mid] = n, lens, v, d

    entry_traces, all_lengths, total_visits = {}, Counter(), 0
    for e in sorted(entries):
        walk(e)
        if depth[e] >= max_depth:
            raise ValueError(f"entry {e} reaches depth {depth[e]}, over the depth cap")
        if counts[e] > cap:
            raise ValueError(f"entry {e} has {counts[e]} traces, over the cap of {cap}")
        entry_traces[e] = counts[e]
        all_lengths.update(lengths[e])
        total_visits += visits[e]

    apis = set()
    for mid in reachable:
        for ins in model.methods[mid].body:
            if ins.target in CRITICAL_SET:
                apis.add(ins.target)
    return Record(
        app_id=app.app_id,
        label=app.label,
        methods=len(model.methods),
        instructions=sum(len(m.body) for m in model.methods.values()),
        entries=sorted(entries),
        reachable=sorted(reachable),
        icc_edges=sorted([list(p) for p in icc]),
        entry_traces=entry_traces,
        critical_apis=sorted(apis),
        seq_lengths=sorted(all_lengths.elements()),
        search_visits=total_visits,
    )


# --- writing apps -----------------------------------------------------------------

def _ir(app: App) -> dict:
    classes = []
    for c in app.classes.values():
        methods = []
        for m in c.methods:
            body = []
            for ins in m.body:
                d = {"mnemonic": ins.mnemonic, "operands": list(ins.operands)}
                if ins.target is not None:
                    d["invoked_method"] = ins.target
                body.append(d)
            methods.append({"name": m.name, "descriptor": m.descriptor,
                            "flags": list(m.flags), "body": body})
        classes.append({"name": c.name, "superclass": c.superclass,
                        "interfaces": list(c.interfaces), "methods": methods})
    components = [{"path_name": c.cls, "category": c.category,
                   "intent_filters": [{"actions": list(c.actions)}] if c.actions else [],
                   "exported": bool(c.actions)}
                  for c in app.components]
    return {"app_id": app.app_id, "classes": classes, "components": components,
            "metadata": {"label": app.label, "timestamp": app.timestamp}}


def smali_text(c: Cls) -> str:
    kind = "public interface abstract" if c.interface else "public"
    lines = [f".class {kind} {c.name}", f".super {c.superclass}", ".source \"gen\""]
    lines += [f".implements {i}" for i in c.interfaces]
    for m in c.methods:
        lines += ["", f".method {' '.join(m.flags)} {m.name}{m.descriptor}"]
        if m.body:
            lines.append("    .locals 8")
        for ins in m.body:
            ops = ", ".join(ins.operands)
            lines.append(f"    {ins.mnemonic} {ops}" if ops else f"    {ins.mnemonic}")
        lines.append(".end method")
    return "\n".join(lines) + "\n"


def manifest_text(app: App) -> str:
    lines = ['<?xml version="1.0" encoding="utf-8"?>',
             '<manifest xmlns:android="http://schemas.android.com/apk/res/android"'
             f' package="{app.package}">', "  <application>"]
    for c in app.components:
        dotted = c.cls[1:-1].replace("/", ".")
        if not c.actions:
            lines.append(f'    <{c.category} android:name="{dotted}"/>')
            continue
        lines.append(f'    <{c.category} android:name="{dotted}">')
        lines.append("      <intent-filter>")
        lines += [f'        <action android:name="{a}"/>' for a in c.actions]
        lines.append("      </intent-filter>")
        lines.append(f"    </{c.category}>")
    lines += ["  </application>", "</manifest>"]
    return "\n".join(lines) + "\n"


def write_app(app: App, root, form: str) -> Path:
    """Write `app` under root/app_id as "ir" (ir.json) or "smali"."""
    app_dir = Path(root) / app.app_id
    app_dir.mkdir(parents=True)
    if form == "ir":
        (app_dir / "ir.json").write_text(json.dumps(_ir(app)))
    else:
        (app_dir / "AndroidManifest.xml").write_text(manifest_text(app))
        for c in app.classes.values():
            path = app_dir / "smali" / (c.name[1:-1] + ".smali")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(smali_text(c))
    (app_dir / "meta.json").write_text(
        json.dumps({"label": app.label, "timestamp": app.timestamp}))
    return app_dir
