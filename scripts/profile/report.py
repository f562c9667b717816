#!/usr/bin/env python3
"""Summarise the samples that sampler.c wrote.

Usage: report.py [--top N] [--within FUNC] [--children FUNC]... [--require FUNC:PCT]... FILE...

Each FILE is one process's dump (`sampler.<pid>`); the report covers the
one with the most samples. Every address is mapped to its module through
the dumped /proc/self/maps. For a position-independent module the address
the symbolizer wants is the runtime address minus the module's load base
(the start of its lowest mapping); for a fixed-address executable it is
the runtime address itself. Return addresses are moved back one byte so
that they name the call instruction. All addresses of a module go through
one `llvm-symbolizer --inlining` process, so each sample expands into its
inlined frames as well.

The report prints, as shares of all samples:
  exclusive  the function executing when the tick came (innermost frame),
  inclusive  samples with the function anywhere on the stack,
  children   for each --children FUNC, FUNC's own share and the share of
             each function it called directly (inlined calls included).
FUNC matches any function whose name contains it. Each --require FUNC:PCT
exits 1 unless the best-matching function's inclusive share exceeds PCT.
With --within FUNC the report keeps only the samples with the best match of
FUNC on the stack, and every table and --require reads as shares of those:
`--within lpc_e2ebench::building::pass` leaves out the benchmark's
yardstick and setup. The header names FUNC and its share of the process.
"""

import argparse
import collections
import re
import subprocess
import sys

HASH_SUFFIX = re.compile(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$")
# Escapes of the legacy Rust mangling, which the Itanium demangler leaves.
LEGACY = [("$LT$", "<"), ("$GT$", ">"), ("$RF$", "&"), ("$BP$", "*"), ("$C$", ","),
          ("$u20$", " "), ("$u27$", "'"), ("$u5b$", "["), ("$u5d$", "]"),
          ("$u7b$", "{"), ("$u7d$", "}"), ("$u7e$", "~"), ("..", "::")]


def readable(name):
    name = HASH_SUFFIX.sub("", name)
    if "$" in name:
        name = re.sub(r"(^|::)_\$", r"\1$", name)
        for escape, char in LEGACY:
            name = name.replace(escape, char)
    return name


def parse(path):
    with open(path) as f:
        lines = f.read().split("\n")
    head, i = {}, 0
    while lines[i] != "maps":
        key, value = lines[i].split()
        head[key] = int(value)
        i += 1
    i += 1
    maps = []
    while lines[i] != "end maps":
        parts = lines[i].split(None, 5)
        if len(parts) == 6:
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
        i += 1
    stacks = [[int(a, 16) for a in line.split()] for line in lines[i + 1:] if line]
    return head, maps, stacks


def is_fixed_address(path):
    """True for an ELF executable linked at fixed addresses (ET_EXEC)."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and int.from_bytes(header[16:18], "little") == 2


def load_bases(maps):
    base = {}
    for lo, _, offset, path in maps:
        if path.startswith("/") and offset == 0 and (path not in base or lo < base[path]):
            base[path] = lo
    return {p: 0 if is_fixed_address(p) else b for p, b in base.items()}


def symbolize(stacks, maps):
    """Map every distinct (address, is_return) to its frames, innermost first."""
    bases = load_bases(maps)
    wanted = collections.defaultdict(set)
    keys = {}
    for stack in stacks:
        for depth, addr in enumerate(stack):
            pc = addr - 1 if depth else addr
            if (addr, depth > 0) in keys:
                continue
            module = next((m for m in maps if m[0] <= pc < m[1]), None)
            if module is None or module[3] not in bases:
                # Anonymous memory or a pseudo-file such as [vdso].
                keys[(addr, depth > 0)] = module[3] if module else f"0x{addr:x}"
                continue
            rel = pc - bases[module[3]]
            keys[(addr, depth > 0)] = (module[3], rel)
            wanted[module[3]].add(rel)
    names = {}
    for path, rels in wanted.items():
        rels = sorted(rels)
        query = "".join(f"0x{r:x}\n" for r in rels)
        run = subprocess.run(
            ["llvm-symbolizer", "--inlining", "--functions=linkage", "--demangle", f"--obj={path}"],
            input=query, capture_output=True, text=True, check=True,
        )
        blocks = run.stdout.strip("\n").split("\n\n")
        for rel, block in zip(rels, blocks):
            lines = block.split("\n")
            frames = [readable(f) for f in lines[0::2]]
            frames = [f if f != "??" else f"{path.rsplit('/', 1)[-1]}+0x{rel:x}" for f in frames]
            names[(path, rel)] = frames
    return {k: names[v] if isinstance(v, tuple) else [v] for k, v in keys.items()}


def expand(stack, frames_of):
    """The sample's frames, innermost first, inlined frames included."""
    out = []
    for depth, addr in enumerate(stack):
        out.extend(frames_of[(addr, depth > 0)])
    return out


def best_match(counts, needle):
    hits = [(n, f) for f, n in counts.items() if needle in f]
    return max(hits) if hits else (0, None)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--within", metavar="FUNC")
    ap.add_argument("--children", action="append", default=[])
    ap.add_argument("--require", action="append", default=[])
    args = ap.parse_args()

    dumps = [(parse(p), p) for p in args.files]
    (head, maps, stacks), path = max(dumps, key=lambda d: len(d[0][2]))
    if not stacks:
        sys.exit(f"{path}: no samples")
    frames_of = symbolize(stacks, maps)
    expanded = [expand(s, frames_of) for s in stacks]
    total = len(expanded)
    cpu_s = head["cpu_ns"] / 1e9
    print(f"{path}: {total} samples over {cpu_s:.2f} CPU-s "
          f"({total / cpu_s:.0f} Hz delivered, {1e6 / head['interval_us']:.0f} Hz asked), "
          f"{head['dropped']} dropped; {len(dumps) - 1} other process dump(s) ignored")

    if args.within:
        n, func = best_match(collections.Counter(f for frames in expanded for f in set(frames)),
                             args.within)
        if func is None:
            sys.exit(f"--within {args.within}: no sample")
        expanded = [frames for frames in expanded if func in frames]
        print(f"within {func}: {n} samples, {100 * n / total:.2f}% of the process; "
              f"every share below is of these")
        total = n

    exclusive = collections.Counter(frames[0] for frames in expanded)
    inclusive = collections.Counter()
    for frames in expanded:
        inclusive.update(set(frames))

    def table(title, counts):
        print(f"\n{title} (share of {total} samples)")
        for name, n in counts.most_common(args.top):
            print(f"  {100 * n / total:6.2f}%  {name}")

    table("exclusive", exclusive)
    table("inclusive", inclusive)

    for needle in args.children:
        n, func = best_match(inclusive, needle)
        if func is None:
            print(f"\nchildren of {needle}: no sample")
            continue
        below = collections.Counter()
        for frames in expanded:
            if func in frames:
                i = frames.index(func)
                below["(self)" if i == 0 else frames[i - 1]] += 1
        print(f"\nchildren of {func}: {100 * n / total:.2f}% inclusive")
        for name, k in below.most_common(args.top):
            print(f"  {100 * k / total:6.2f}%  {name}")

    failed = False
    for req in args.require:
        needle, pct = req.rsplit(":", 1)
        n, func = best_match(inclusive, needle)
        share = 100 * n / total
        ok = share > float(pct)
        failed |= not ok
        print(f"\nrequire {needle} > {pct}%: {func or needle} {share:.2f}% inclusive: "
              f"{'ok' if ok else 'FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
