"""The three workloads: what apps each one generates and how it runs them.

Every app draws its shape (method sizes, call structure, trace lengths) from
a generator seeded by its index alone, and its content (the filler opcodes
and operands, the platform calls, which critical API it plants) from one
seeded by the run's seed. Two seeds therefore give different apps of equal
cost, and the medians of a set of runs stay steady.
"""

from dataclasses import dataclass, field

import numpy as np

from gen import (
    ACTIVITY,
    BENIGN_CALLS,
    CALLBACKS,
    CLICK_LISTENER,
    CRITICAL_CALLS,
    RECEIVER,
    SERVICE,
    App,
    Cls,
    Comp,
    Ins,
    Method,
    filler,
    invoke,
)

OPCODE_BUDGET = 8000
RETURN = Ins("return-void")


@dataclass(frozen=True)
class Workload:
    name: str
    form: str                   # how apps are written: "ir" or "smali"
    hyper: dict                 # droidflow hyperparameters (paper optima unless set)
    setup_probes: int           # fresh processes timing set-up; the median is reported
    build: object               # seed -> (train apps, held-out apps)
    gates: tuple = field(default=())   # extra checks: "loss_falls", "f1"
    extract_passes: int = 1     # extract calls per app per round; more where they are short


def _label(malicious):
    return "malicious" if malicious else "benign"


def _stamp(idx):
    return f"{2016 + idx % 5}-{1 + idx % 12:02d}-{1 + idx % 28:02d}"


def _final(rng, malicious):
    pool = CRITICAL_CALLS if malicious else BENIGN_CALLS
    kind, sig = pool[int(rng.integers(0, len(pool)))]
    return invoke(kind, sig)


def _m(owner, name, parts, descriptor="()V"):
    body = [ins for part in parts for ins in part]
    return Method(owner, name, body + [RETURN], descriptor)


# --- desk-train: small two-class apps like the test corpus ------------------------

def desk_app(seed, idx, malicious) -> App:
    """An activity whose onCreate reaches a final call through 2-3 helpers.

    Half of the malicious apps also start a second activity by an explicit
    intent; it reaches a second critical API. A third of the benign apps
    carry an unreachable utility class."""
    shape = np.random.default_rng((idx, int(malicious)))
    rng = np.random.default_rng((seed, idx, int(malicious)))
    tag = ("mal" if malicious else "ben") + f"{idx:04d}"
    app = App(f"{tag}", f"syn.{tag}", _label(malicious), _stamp(idx))
    main, second = f"Lsyn/{tag}/Main;", f"Lsyn/{tag}/Second;"

    def chain(cls_name, hops):
        cls = app.add(Cls(cls_name, ACTIVITY))
        names = ["onCreate"] + [f"step{i}" for i in range(1, hops + 1)]
        for i, name in enumerate(names):
            if i + 1 < len(names):
                call = invoke("invoke-direct", f"{cls_name}->{names[i + 1]}()V")
            else:
                call = _final(rng, malicious)
            cls.methods.append(_m(cls_name, name, [
                filler(rng, int(shape.integers(45, 90)), calls=False), [call],
                filler(rng, int(shape.integers(2, 8)), calls=False)]))
        app.components.append(Comp(cls_name, "activity"))
        return cls

    first = chain(main, int(shape.integers(2, 4)))
    if malicious and idx % 2 == 0:
        body = first.methods[0].body
        body[-1:-1] = [Ins("const-class", ("v0", second)),
                       invoke("invoke-virtual",
                              "Landroid/app/Activity;->startActivity(Landroid/content/Intent;)V")]
        chain(second, 1)
    if not malicious and idx % 3 == 0:
        util = f"Lsyn/{tag}/Util;"
        app.add(Cls(util, methods=[
            _m(util, "format", [filler(rng, int(shape.integers(10, 30)), calls=False)])]))
    return app


def desk_build(seed):
    train = [desk_app(seed, i, m) for i in range(24) for m in (False, True)]
    held = [desk_app(seed, 100 + i, False) for i in range(8)]
    held += [desk_app(seed, 100 + i, True) for i in range(16)]
    return train, held


# --- large-apps: smali apps with hundreds to thousands of methods -----------------

LIVE_WIDTH, LIVE_LAYERS = 3, 4
DEAD_WIDTH = 4


def large_app(seed, idx, malicious, bulk_methods, dead_layers) -> App:
    """A smali app with a class hierarchy, listeners, ICC and layered helpers.

    - BaseActivity.onCreate calls the virtual setup(), which four activities
      override; each override registers a click listener, calls into its own
      layered "live" helper graph (3 wide, 4 deep, every method calling every
      method of the next layer) and dispatches Task.exec through an interface
      with three implementations.
    - Activities send an explicit intent to a service, an implicit broadcast
      to a receiver and an explicit intent to another activity.
    - Each onResume walks a 4-wide "dead" helper graph of `dead_layers`
      layers whose leaves call no critical API, so the trace search visits
      4 + 16 + ... + 4**dead_layers methods for nothing.
    - Listeners and the receiver reach binary utility trees; `bulk_methods`
      more methods sit in library classes nothing calls.

    Malicious apps plant critical calls in the first leaf of every live
    graph and at the end of the first task chain; benign apps call logging
    and string APIs there instead."""
    shape = np.random.default_rng((idx, int(malicious), 7))
    rng = np.random.default_rng((seed, idx, int(malicious), 7))
    tag = f"large{idx:03d}"
    pkg = f"com.bench.{tag}"
    p = "L" + pkg.replace(".", "/") + "/"
    app = App(f"{'mal' if malicious else 'ben'}_{tag}", pkg, _label(malicious), _stamp(idx))

    def body(lo=6, hi=22):
        return filler(rng, int(shape.integers(lo, hi)))

    def static(cls, name):
        return invoke("invoke-static", f"{cls}->{name}()V", "{}")

    def layered(cls_name, width, layers, leaf):
        cls = app.add(Cls(cls_name))
        for layer in range(layers):
            for j in range(width):
                if layer + 1 < layers:
                    parts = []
                    for k in range(width):
                        parts += [body(2, 8), [static(cls_name, f"n{layer + 1}_{k}")]]
                else:
                    parts = [body(), [leaf(j)], body(2, 6)]
                cls.methods.append(_m(cls_name, f"n{layer}_{j}", parts))
        return [static(cls_name, f"n0_{k}") for k in range(width)]

    def tree(cls_name, size):
        cls = app.add(Cls(cls_name))
        for k in range(size):
            kids = [c for c in (2 * k + 1, 2 * k + 2) if c < size]
            parts = [body()]
            for c in kids:
                parts += [[static(cls_name, f"t{c}")], body(1, 5)]
            cls.methods.append(_m(cls_name, f"t{k}", parts))
        return static(cls_name, "t0")

    def crit_or_benign(plant):
        if malicious and plant:
            kind, sig = CRITICAL_CALLS[int(rng.integers(0, len(CRITICAL_CALLS)))]
        else:
            kind, sig = BENIGN_CALLS[int(rng.integers(0, len(BENIGN_CALLS)))]
        return invoke(kind, sig)

    base = p + "BaseActivity;"
    app.add(Cls(base, ACTIVITY, methods=[
        _m(base, "onCreate", [body(), [invoke("invoke-virtual", f"{base}->setup()V", "{p0}")],
                              body()]),
        _m(base, "setup", [body()]),
    ]))

    task = p + "Task;"
    app.add(Cls(task, interface=True, methods=[
        Method(task, "exec", [], flags=("public", "abstract"))]))
    for j in range(3):
        impl, chain = p + f"TaskImpl{j};", p + f"TaskChain{j};"
        app.add(Cls(chain, methods=[
            _m(chain, "c0", [body(), [static(chain, "c1")], body(2, 6)]),
            _m(chain, "c1", [body(), [static(chain, "c2")], body(2, 6)]),
            _m(chain, "c2", [body(), [crit_or_benign(j == 0)], body(2, 6)]),
        ]))
        app.add(Cls(impl, interfaces=(task,), methods=[
            _m(impl, "exec", [body(), [static(chain, "c0")], body(2, 6)])]))

    trees = [tree(p + f"Util{u};", 63) for u in range(2)]
    service, receiver = p + "SyncService;", p + "SyncReceiver;"
    action = f"{pkg}.SYNC"
    app.add(Cls(service, SERVICE, methods=[
        _m(service, "onCreate", [body(), [trees[0]], body()]),
        _m(service, "onStartCommand", [body()], "(Landroid/content/Intent;II)I"),
    ]))
    app.add(Cls(receiver, RECEIVER, methods=[
        _m(receiver, "onReceive", [body(), [trees[1]], body()],
           "(Landroid/content/Context;Landroid/content/Intent;)V")]))

    sends = [
        [Ins("const-class", ("v0", service)),
         invoke("invoke-virtual", "Landroid/content/Context;->startService("
                "Landroid/content/Intent;)Landroid/content/ComponentName;", "{p0, v0}")],
        [Ins("const-string", ("v0", f'"{action}"')),
         invoke("invoke-virtual",
                "Landroid/content/Context;->sendBroadcast(Landroid/content/Intent;)V",
                "{p0, v0}")],
        [Ins("const-class", ("v0", p + "Act3;")),
         invoke("invoke-virtual",
                "Landroid/app/Activity;->startActivity(Landroid/content/Intent;)V", "{p0, v0}")],
        [],
    ]
    dead = [layered(p + f"Dead{d};", DEAD_WIDTH, dead_layers, lambda j: crit_or_benign(False))
            for d in range(2)]
    for i in range(4):
        act, listener = p + f"Act{i};", p + f"Listener{i};"
        live = layered(p + f"Live{i};", LIVE_WIDTH, LIVE_LAYERS,
                       lambda j: crit_or_benign(j == 0))
        app.add(Cls(listener, interfaces=(CLICK_LISTENER,), methods=[
            _m(listener, "onClick", [body(), [trees[i % 2]], body()], "(Landroid/view/View;)V")]))
        register = [Ins("new-instance", ("v0", listener)),
                    invoke("invoke-virtual", "Landroid/view/View;->setOnClickListener("
                           f"{CLICK_LISTENER})V", "{v1, v0}")]
        setup = [body(), register, body()]
        for call in live:
            setup += [[call], body(1, 4)]
        setup += [[invoke("invoke-interface", f"{task}->exec()V", "{v2}")], body(2, 6),
                  sends[i], body(2, 6)]
        resume = [body()]
        for call in dead[i % 2]:
            resume += [[call], body(1, 4)]
        app.add(Cls(act, base, methods=[_m(act, "setup", setup), _m(act, "onResume", resume)]))
        app.components.append(Comp(act, "activity"))
    app.components.append(Comp(service, "service"))
    app.components.append(Comp(receiver, "receiver", (action,)))

    for b in range(0, bulk_methods, 25):
        lib = p + f"lib/Lib{b // 25};"
        cls = app.add(Cls(lib))
        size = min(25, bulk_methods - b)
        for k in range(size):
            parts = [body(2, 10)]
            if k + 1 < size and shape.random() < 0.5:
                parts += [[static(lib, f"f{k + 1}")], body(1, 6)]
            cls.methods.append(_m(lib, f"f{k}", parts))
    return app


# (bulk methods, dead-graph layers) per app, in app order
LARGE_TRAIN = [(150, 6), (1400, 7), (500, 6), (2000, 6), (900, 7), (300, 6), (1700, 7), (700, 6)]
# Held-out scan times are far apart, so the median scan is always the middle app's.
LARGE_HELD = [(150, 5), (600, 6), (1200, 6), (1600, 7), (2400, 7)]


def large_build(seed):
    train = [large_app(seed, i, i % 2 == 1, *size) for i, size in enumerate(LARGE_TRAIN)]
    held = [large_app(seed, 100 + i, i % 2 == 0, *size) for i, size in enumerate(LARGE_HELD)]
    return train, held


# --- paper-scale: long traces at the paper's width ---------------------------------

def _long_trace(shape, rng, app, owner, entry, length, final):
    """Method `entry` of `owner` reaching `final` through three helpers, with
    a trace of exactly `length` opcodes."""
    chain = f"{owner[:-1]}_{entry};"
    helper = app.add(Cls(chain))
    cuts = np.sort(shape.choice(np.arange(8, length - 8), size=3, replace=False))
    parts = np.diff(np.concatenate([[0], cuts, [length]]))
    names = [entry, "c1", "c2", "c3"]
    for k in range(4):
        call = invoke("invoke-static", f"{chain}->{names[k + 1]}()V", "{}") if k < 3 else final
        cls = app.classes[owner] if k == 0 else helper
        cls.methods.append(_m(cls.name, names[k], [
            filler(rng, int(parts[k]) - 1), [call], filler(rng, int(shape.integers(2, 6)))]))


def paper_app(seed, idx, kind, rows=()) -> App:
    """kind "mal": one long trace per lifecycle entry, rows[i] full rows
    each; "over": four long traces plus 50 short callback traces, together
    over the opcode budget; "ben": three long chains ending in benign calls."""
    shape = np.random.default_rng((idx, 11))
    rng = np.random.default_rng((seed, idx, 11))
    malicious = kind != "ben"
    tag = f"paper{idx:03d}"
    app = App(f"{kind}_{tag}", f"com.bench.{tag}", _label(malicious), _stamp(idx))
    owners = [f"Lcom/bench/{tag}/Main;"] + ([f"Lcom/bench/{tag}/Second;"] if kind == "over" else [])
    for owner in owners:
        app.add(Cls(owner, ACTIVITY))
        app.components.append(Comp(owner, "activity"))
    if kind == "mal":
        lengths = [100 * r + int(shape.integers(8, 92)) for r in rows]
    elif kind == "over":
        lengths = [int(shape.integers(1500, 1600)) for _ in range(4)]
    else:
        lengths = [int(shape.integers(300, 900)) for _ in range(3)]
    entries = ("onCreate", "onStart", "onResume", "onPause", "onStop", "onRestart", "onDestroy")
    for entry, length in zip(entries, lengths):
        _long_trace(shape, rng, app, owners[0], entry, length, _final(rng, malicious))
    if kind == "over":
        for owner in owners:
            for cb in CALLBACKS:
                short = int(shape.integers(55, 99))
                app.classes[owner].methods.append(_m(owner, cb, [
                    filler(rng, short - 1), [_final(rng, True)], filler(rng, 2)]))
    return app


def paper_build(seed):
    train = [paper_app(seed, 0, "mal", (4, 4, 4)), paper_app(seed, 1, "mal", (6, 5, 5)),
             paper_app(seed, 2, "ben")]
    held = [paper_app(seed, 100, "ben"), paper_app(seed, 101, "over"),
            paper_app(seed, 102, "mal", (5, 5)), paper_app(seed, 103, "mal", (5, 5, 4)),
            paper_app(seed, 104, "mal", (6, 6, 6))]
    return train, held


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-train", "ir", {"lstm_units": 32, "epochs": 8},
                 setup_probes=5, build=desk_build,
                 gates=("loss_falls", "f1"), extract_passes=4),
        Workload("large-apps", "smali", {"lstm_units": 32, "epochs": 3},
                 setup_probes=5, build=large_build),
        Workload("paper-scale", "ir", {"lstm_units": 256, "epochs": 1},
                 setup_probes=3, build=paper_build, extract_passes=4),
    )
}
