#!/usr/bin/env python3
"""PKGM benchmark: one command per workload, one JSON result line.

    python3 pkgmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md and BENCHMARK.json): both run the paper's
offline path (synthetic PKG -> .pkgt index -> 1-worker, N-worker and
parameter-server training -> int8 .pkgs export) and, in turn with it, a
recommend/classify/align/lookup mix against a serving daemon whose vector
cache holds 250 entries:
  pretrain_infer_cold  keys uniform over the 1000-item catalog (cache missed)
  pretrain_infer_hot   keys Zipf over 200 items (cache hit)

The program is built from this checkout on first use (CMake, into
$CARGO_TARGET_DIR or .bench_build). Every server and shard runs as its own
process in its own process group and is reaped on every exit path. The
last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
NPROC = os.cpu_count() or 1
TARGETS = ["pkgm_tool", "pkgm_psd", "pkgm_netd", "pkgmbench_harness",
           "pkgmbench_netd"]

# The offline path's hyper-parameters (identical for every trainer); the
# input KG's size is fixed in src/offline.cc
DIM, EPOCHS, LR, TRAIN_SEED = 64, 12, 0.25, 17
N_WORKERS = min(NPROC, 4)
HINGE_BOUND = 0.15  # nw / PS final hinge within 15% of the 1-worker hinge
# A run is interleaved cycles of: one fresh serving daemon driven for 3 s
# (its cache size and I/O backend are fixed in src/infer_netd.cc, the load
# time and open-loop rate in src/serve_load.cc), index build
# (x2), 1-worker (x2) and N-worker training, int8 export (x2), and in every
# PS_EVERY-th cycle parameter-server training. One cycle takes ~8.8 s here;
# --seconds sets how many run. Each figure is its median over the run.
PS_EVERY = 2
CYCLE_SECONDS = 8.8

CHILDREN = []  # live subprocess.Popen objects, reaped on every exit path
SPANS = []  # (name, parent, start_s, end_s) recorded by --trace 1 runs


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------- processes --

def reap_all():
    for p in list(CHILDREN):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except OSError:
            pass
    for p in list(CHILDREN):
        try:
            os.waitpid(p.pid, 0)
        except OSError:
            pass
        CHILDREN.remove(p)


def on_signal(signum, _frame):
    raise BenchError("interrupted by signal %d" % signum)


def wait_rusage(p):
    """Waits for `p` like Popen.wait (the run's SIGALRM deadline bounds the
    wait), returning (exit code, peak RSS MB)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)
    return p.returncode, ru.ru_maxrss / 1024.0


def run(args, work, name):
    """Runs a program to completion; returns (stdout, wall seconds, RSS MB)."""
    with open(os.path.join(work, name + ".log"), "w") as err:
        t0 = time.monotonic()
        p = subprocess.Popen(args, cwd=work, stdout=subprocess.PIPE, stderr=err,
                             start_new_session=True, text=True)
        CHILDREN.append(p)
        out = p.stdout.read()
        code, rss = wait_rusage(p)
        wall = time.monotonic() - t0
    SPANS.append((name, "round", t0 - START, t0 - START + wall))
    if code != 0:
        raise BenchError("%s exited with %d: %s" % (name, code, out[-400:]))
    return out, wall, rss


def harness(work, *args):
    out, _, _ = run([bin_path("pkgmbench_harness")] + [str(a) for a in args],
                    work, "harness_" + args[0])
    return json.loads(out.strip().splitlines()[-1])


def start_daemon(args, work, name):
    """Starts a server in its own process group; returns (Popen, port)."""
    port_file = os.path.join(work, name + ".port")
    if os.path.exists(port_file):
        os.remove(port_file)
    logf = open(os.path.join(work, name + ".log"), "w")
    p = subprocess.Popen(args + ["--port-file", port_file], cwd=work,
                         stdout=logf, stderr=subprocess.STDOUT,
                         start_new_session=True)
    logf.close()
    CHILDREN.append(p)
    deadline = time.monotonic() + 60
    while not os.path.exists(port_file):
        if p.poll() is not None or time.monotonic() > deadline:
            raise BenchError("%s did not start; see %s.log" % (name, name))
        time.sleep(0.005)
    with open(port_file) as f:
        return p, int(f.read())


def stop_daemon(p):
    """SIGTERM (graceful drain), then reap; returns the peak RSS in MB."""
    os.killpg(p.pid, signal.SIGTERM)
    code, rss = wait_rusage(p)
    if code != 0:
        raise BenchError("%s exited with %d on SIGTERM" % (p.args[0], code))
    return rss


# --------------------------------------------------------------- build --

def bin_path(name):
    sub = "tools" if name.startswith("pkgm_") else ""
    return os.path.join(BUILD, sub, name)


def source_stamp():
    h = hashlib.sha256()
    for top in ("src", "tools", "pkgmbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                st = os.stat(os.path.join(dirpath, f))
                h.update(("%s/%s %d %d\n" % (dirpath, f, st.st_size,
                                             st.st_mtime_ns)).encode())
    return h.hexdigest()


def build():
    """Builds the program and the harness unless the stamp is current;
    returns the seconds spent."""
    t0 = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no program sources next to pkgmbench/")
    stamp_file = os.path.join(BUILD, "pkgmbench.stamp")
    stamp = source_stamp()
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return time.monotonic() - t0
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "pkgmbench_build.log"), "w") as blog:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(min(NPROC, 4)),
                     "--target"] + TARGETS):
            if subprocess.call(cmd, stdout=blog, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed; see %s" % blog.name)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return time.monotonic() - t0


# ----------------------------------------------------------- workloads --

def parse_train(out, name):
    """Per-epoch hinge/active/throughput lines, the final eval hinge and
    push/pull counts from `pkgm_tool train` output."""
    epochs = [(int(e), float(h), int(a.replace(",", "")), float(tps))
              for e, h, a, tps in re.findall(
                  r"epoch\s+(\d+)\s+mean hinge ([\d.]+)\s+active ([\d,]+)"
                  r"\s+\(([\d.]+) triples/s\)", out)]
    final = re.search(r"final eval hinge ([\d.]+)", out)
    if len(epochs) < 2 or not final:
        raise BenchError("%s: unexpected trainer output" % name)
    pp = re.search(r"\((\d+) pulls, (\d+) pushes\)", out)
    return {"first": epochs[0][1], "last": epochs[-1][1],
            "active": epochs[-1][2], "hinge": float(final.group(1)),
            # the trainer's own per-epoch rate, median over the epochs it
            # reports: no start-up, checkpoint save or eval pass in it
            "epoch_tps": statistics.median(e[3] for e in epochs),
            "pulls": int(pp.group(1)) if pp else 0,
            "pushes": int(pp.group(2)) if pp else 0}


def serve_metrics(stats, e2e_p50):
    lat, net = stats["latency"], stats["net"]
    syscalls = net["io_wait_calls"] + net["io_recv_syscalls"] + net["io_send_syscalls"]
    return {
        "serve.queue_us": lat["queue"]["p50_us"],
        "serve.compute_us": lat["execute"]["p50_us"],
        "net.transport_us": e2e_p50 - lat["queue"]["p50_us"] - lat["execute"]["p50_us"],
        "net.syscalls_per_frame": syscalls / max(1, net["frames_out"]),
    }


def serve_once(args, work, instance, traced):
    """One server instance: start it, drive and check it for 3 s (fixed
    in src/serve_load.cc), stop it. Returns the harness result, its start
    time, the server's stats and peak RSS."""
    store = "served.pkgs"
    pkg_seed = 1000 + args.seed
    proc, port = start_daemon(
        [bin_path("pkgmbench_netd"), "--seed", str(pkg_seed), "--store", store],
        work, "server")
    with open(os.path.join(work, "server.log")) as f:
        m = re.search(r"(\d+) users, (\d+) classes", f.read())
    if not m:
        raise BenchError("server banner lacks the user and class counts")
    harness_t0 = time.monotonic()
    try:
        res = harness(work, "serve", "--port", port, "--pkg-seed", pkg_seed,
                      "--store", store, "--dir", work, "--seed", args.seed * 100 + instance,
                      "--trace", int(traced), "--keys", WORKLOADS[args.workload],
                      "--num-users", m.group(1), "--num-classes", m.group(2))
    finally:
        rss = stop_daemon(proc)
    stats = json.load(open(os.path.join(work, "server_stats.json")))
    res["io_backend"] = stats["net"]["io_backend"]
    return res, harness_t0, stats, rss


def pretrain_and_serve(args, work, setup_t0):
    tool = bin_path("pkgm_tool")
    kg = harness(work, "gen-kg", "--seed", args.seed, "--dir", work)
    triples = kg["distinct"]
    common = ["--epochs", EPOCHS, "--dim", DIM, "--optimizer", "sgd",
              "--lr", LR, "--seed", TRAIN_SEED, "--eval-hinge"]
    common = [str(c) for c in common]

    def train(model, workers, extra=()):
        out, wall, rss = run([tool, "train", "kg.pkgt", model, "--workers",
                              str(workers)] + common + list(extra), work,
                             "train_%s" % model)
        return parse_train(out, model), wall, rss

    def start_shard(s, name):
        return start_daemon(
            [bin_path("pkgm_psd"), "--shard", str(s), "--num-shards", "2",
             "--entities", str(kg["entities"]), "--relations",
             str(kg["relations"]), "--dim", str(DIM), "--model-seed",
             str(TRAIN_SEED), "--optimizer", "sgd", "--lr", str(LR),
             "--stats-json", name + ".json"], work, name)

    def ps_train():
        """Parameter-server training: 2 fresh pkgm_psd shards, 2 workers.
        The RSS is that of the worker and both shards together."""
        shards = [start_shard(s, "shard%d" % s) for s in range(2)]
        endpoints = ",".join("127.0.0.1:%d" % port for _, port in shards)
        res, wall, rss = train("ps.bin", 2, ["--connect-shards", endpoints])
        for p, _ in shards:
            rss += stop_daemon(p)
        return res, wall, rss

    def ps_probe():
        """Pull/push round trips against a fresh shard of its own, so the
        probe's traffic stays out of the training shards' stats."""
        p, port = start_shard(0, "probe_shard")
        try:
            return harness(work, "ps-probe", "--port", port)
        finally:
            stop_daemon(p)

    attempted = 0
    outs, walls, rsss, hinges, tps = {}, {}, {}, {}, {}
    serving = []  # (harness result, start, server stats, RSS) per instance

    def step(name, fn):
        nonlocal attempted
        res, wall, rss = fn()
        walls.setdefault(name, []).append(wall)
        rsss.setdefault(name, []).append(rss)
        if isinstance(res, dict):  # a trainer's parsed output
            hinges.setdefault(name, []).append(res["hinge"])
            tps.setdefault(name, []).append(res["epoch_tps"])
            outs[name] = res
        attempted += 1

    # Interleaved cycles of every step, so each figure's median samples the
    # whole run (this host's speed drifts within seconds). A cycle is one
    # fresh server instance driven for 3 s, then the offline
    # steps; the first server instance's first timed request ends set-up.
    # With --trace 1 only the first instance is traced.
    for c in range(max(2, round(args.seconds / CYCLE_SECONDS))):
        serving.append(serve_once(args, work, c, args.trace and c == 0))
        for _ in range(2):  # the short steps twice per cycle
            step("build", lambda: run([tool, "build-kg-index", "kg.tsv",
                                       "kg.pkgt"], work, "build_index"))
        for _ in range(2):  # the noisiest on this host: 1.2-2.0 s a run
            step("w1", lambda: train("w1.bin", 1))
        step("wn", lambda: train("wn.bin", N_WORKERS))
        if c % PS_EVERY == 0:
            step("ps", ps_train)
        for _ in range(2):
            step("export", lambda: run([tool, "export-store", "wn.bin",
                                        "wn_int8.pkgs", "int8"], work,
                                       "export_int8"))
    probe = None
    if args.trace:
        step("w2", lambda: train("w2.bin", 2))
        probe = ps_probe()
    shard_stats = [json.load(open(os.path.join(work, "shard%d.json" % s)))
                   for s in range(2)]
    wall = {k: statistics.median(v) for k, v in walls.items()}
    hinge = {k: statistics.median(v) for k, v in hinges.items()}
    epoch_tps = {k: statistics.median(t) for k, t in tps.items()}

    # Checks on the outputs of the last run of each offline step, then on
    # every server instance.
    run([tool, "export-store", "wn.bin", "wn_fp32.pkgs", "fp32"], work,
        "export_fp32")
    results = [harness(work, "check-index", "--dir", work, "--pkgt", "kg.pkgt",
                       "--seed", args.seed, "--trace", args.trace),
               harness(work, "check-train", "--dir", work, "--fp32",
                       "wn_fp32.pkgs", "--int8", "wn_int8.pkgs",
                       "--model-seed", TRAIN_SEED)]
    checks = []
    for name in ("w1", "wn", "ps"):
        t = outs[name]
        checks.append((t["last"] < t["first"],
                       "%s hinge did not fall (%.4f -> %.4f)" %
                       (name, t["first"], t["last"])))
    for name in ("wn", "ps"):
        ratio = hinge[name] / hinge["w1"]
        checks.append((abs(ratio - 1) <= HINGE_BOUND,
                       "%s final hinge is %.3fx the 1-worker hinge" %
                       (name, ratio)))
    for st in shard_stats:
        checks.append((st.get("rejects", 0) == 0,
                       "a parameter-server shard rejected requests"))
    for _, _, stats, _ in serving:
        checks.append((stats["net"]["protocol_errors"] == 0,
                       "server saw protocol errors"))
    served = [res for res, _, _, _ in serving]
    results += served
    attempted += sum(int(res["attempted"]) for res in served)
    failed = sum(int(res["failed"]) for res in served)

    work_done = triples * EPOCHS
    if not args.trace:
        res0, harness_t0, _, _ = serving[0]
        # the program's processes only: the offline steps' medians (a PS
        # step's worker and shards together) and the server instances'
        rss = [statistics.median(v) for v in rsss.values()]
        rss.append(statistics.median(r for _, _, _, r in serving))
        metrics = {
            "setup_s": harness_t0 - setup_t0 + res0["first_op_s"],
            "peak_rss_mb": max(rss),
            "pkgt_build_s": wall["build"],
            "train_1w_triples_per_s": work_done / wall["w1"],
            "train_nw_triples_per_s": work_done / wall["wn"],
            "ps_triples_per_s": work_done / wall["ps"],
            "train_hinge": hinge["wn"],
            "pkgs_export_s": wall["export"],
            "peak_rps": statistics.median(r["peak_rps"] for r in served),
        }
        # Open-loop latency goes to stderr only: its run-to-run spread on
        # the reference host is wider than any bound (README.md).
        log(json.dumps({k: statistics.median(r[k] for r in served)
                        for k in ("p50_us", "p99_us", "run_p999_us")}))
    else:
        layers = harness(work, "offline-layers", "--dir", work, "--pkgt",
                         "kg.pkgt", "--model", "wn.bin", "--seed", args.seed)
        results += [layers, probe]
        res0, _, stats0, _ = serving[0]
        metrics = {k: v for k, v in
                   list(results[0].items()) + list(layers.items()) +
                   list(res0.items())
                   if k.startswith(("kg.", "tensor.", "core.", "store.",
                                    "serve.", "net.", "infer.", "trace."))}
        metrics.update(serve_metrics(stats0, res0["p50_us"]))
        metrics.update({
            "store.file_bytes": res0["store_file_bytes"],
            "core.active_pairs": outs["w1"]["active"],
            "core.epoch_s_w1": triples / epoch_tps["w1"],
            "core.epoch_s_w2": triples / epoch_tps["w2"],
            "core.epoch_s_wN": triples / epoch_tps["wn"],
            "dist.pull_rtt_us": probe["dist.pull_rtt_us"],
            "dist.push_rtt_us": probe["dist.push_rtt_us"],
            "dist.pulls": outs["ps"]["pulls"],
            "dist.pushes": outs["ps"]["pushes"],
            "dist.rows_pulled": sum(s["rows_pulled"] for s in shard_stats),
            "dist.bytes_per_epoch": sum(s["net"]["bytes_in"] + s["net"]["bytes_out"]
                                        for s in shard_stats) / EPOCHS,
        })
    return metrics, checks, results, attempted, failed


# workload -> the serving half's keys (pkgmbench_harness serve --keys)
WORKLOADS = {"pretrain_infer_cold": "cold", "pretrain_infer_hot": "hot"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(s, on_signal)
    try:
        build_s = build()
        signal.alarm(170)  # the run's hard deadline, after any build
        t0 = time.monotonic()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        work = os.path.join(WORK, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # set-up runs from process start, less the build check and the
        # removal of the previous run's files
        setup_t0 = START + build_s + (time.monotonic() - t0)
        metrics, checks, results, attempted, failed = pretrain_and_serve(
            args, work, setup_t0)
    except BenchError as e:
        log("pkgmbench: %s" % e)
        reap_all()
        return 1
    finally:
        signal.alarm(0)
        reap_all()

    failures = [why for ok, why in checks if not ok]
    for r in results:
        failures += r.get("failures", [])
    for why in failures:
        log("CHECK FAILED: %s" % why)
    for r in results:
        log(json.dumps(r))
    if args.trace:
        with open(os.path.join(work, "spans.jsonl"), "w") as f:
            for name, parent, t0, t1 in SPANS:
                f.write(json.dumps({"span": name, "parent": parent,
                                    "start_s": t0, "end_s": t1}) + "\n")
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        log("pkgmbench: measured metrics differ from BENCHMARK.json: "
            "unlisted %s, not measured %s" % (sorted(set(metrics) - set(units)),
                                              sorted(set(units) - set(metrics))))
        return 1
    out = {name: {"value": float(metrics[name]), "unit": unit}
           for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
