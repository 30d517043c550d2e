"""Output checks: parse what a `phocus` verb printed and wrote, and compare
each decision with the reference solver's record (see probe/src/reference.rs).

A parsed decision is a dict. ``ok`` is False for a ``fail`` line; ``selected``
(photo ids in output order) is present when the verb writes its selection;
``score`` carries ``score_decimals`` printed digits. Verbs that print no
selection (``epochs``) carry ``retained`` and ``cost_mb`` instead.
"""

import os
import re

# Slack on a printed MB figure with two decimals, in bytes.
MB_2DP_BYTES = 5000.0


def _fields(line):
    """``key=value`` fields of a tab-separated status line."""
    return dict(f.split("=", 1) for f in line.split("\t") if "=" in f)


def _number(pattern, text):
    m = re.search(pattern, text, re.MULTILINE)
    return float(m.group(1)) if m else None


def _ids(tsv_text, column=0):
    return [int(line.split("\t")[column]) for line in tsv_text.splitlines() if line]


def parse_solve(stdout, out_tsv):
    """`phocus solve --out FILE`: report lines plus the retained-id TSV."""
    return {
        "solve": {
            "ok": True,
            "selected": _ids(out_tsv),
            "score": _number(r"^quality: ([0-9.]+) of max", stdout),
            "score_decimals": 3,
            "max": _number(r"^quality: [0-9.]+ of max ([0-9.]+)", stdout),
            "ratio": _number(r"achieved ratio ≥ ([0-9.]+)", stdout),
        }
    }


def parse_serve(stdout, sols_dir):
    """`phocus serve-batch --catalog DIR --out-dir SOLS`: one status line and
    one ``{i:05}_{name}.tsv`` selection file per tenant."""
    out = {}
    files = {}
    if os.path.isdir(sols_dir):
        for f in os.listdir(sols_dir):
            files[f] = os.path.join(sols_dir, f)
    i = 0
    for line in stdout.splitlines():
        parts = line.split("\t")
        if parts[0] == "fail":
            name = parts[1].split(":", 1)[0] if len(parts) > 1 else "?"
            out[name] = {"ok": False, "line": line}
            i += 1
        elif parts[0] == "ok" and len(parts) > 1:
            name = parts[1]
            f = _fields(line)
            path = files.get("%05d_%s.tsv" % (i, name.replace("/", "_").replace("\\", "_")))
            selected = None
            if path:
                with open(path) as fh:
                    selected = _ids(fh.read())
            out[name] = {
                "ok": True,
                "selected": selected if selected is not None else [],
                "photos": int(f["photos"]),
                "score": float(f["score"]),
                "score_decimals": 3,
            }
            i += 1
    return out


def parse_epochs(stdout):
    """`phocus epochs --trace FILE`: one status line per epoch, no selection."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if parts[0] not in ("ok", "fail") or len(parts) < 2 or not parts[1].startswith("epoch="):
            continue
        key = parts[1].rstrip(":")
        if parts[0] == "fail":
            out[key] = {"ok": False, "line": line}
            continue
        f = _fields(line)
        out[key] = {
            "ok": True,
            "photos": int(f["photos"]),
            "retained": int(f["retained"]),
            "cost_mb": float(f["cost_mb"]),
            "score": float(f["score"]),
            "score_decimals": 3,
        }
    return out


def parse_compress(stdout, out_tsv):
    """`phocus compress --out FILE`: quality lines plus the action TSV
    (id, parent, action, cost, name)."""
    return {
        "compress": {
            "ok": True,
            "selected": _ids(out_tsv),
            "parents": _ids(out_tsv, column=1),
            "score": _number(r"^compression-aware quality:\s+([0-9.]+)", stdout),
            "score_decimals": 2,
            "remove_only": _number(r"^remove-only quality:\s+([0-9.]+)", stdout),
        }
    }


def _close(printed, exact, decimals):
    """Whether ``printed`` is ``exact`` rounded to ``decimals`` places."""
    return printed is not None and abs(printed - exact) <= 0.5 * 10.0 ** -decimals + 1e-9 * abs(exact)


def check(ref, out):
    """Reasons the verb's decision ``out`` fails against ``ref`` (empty = pass)."""
    if out is None:
        return ["no output for this decision"]
    if not out.get("ok"):
        return ["fail line: %s" % out.get("line", "")]
    reasons = []
    required = set(ref["required"])
    if "selected" in out:
        sel = out["selected"]
        costs = ref["costs"]
        if any(not 0 <= p < len(costs) for p in sel):
            return ["selection names a photo the instance does not have"]
        if sum(costs[p] for p in sel) > ref["budget"]:
            reasons.append("retained cost exceeds the budget")
        if not required <= set(sel):
            reasons.append("S0 is not retained")
        if sel != ref["selected"]:
            reasons.append("selection differs from the reference solver")
        if "parent" in ref:
            parents = [ref["parent"][p] for p in sel]
            if len(set(parents)) != len(parents):
                reasons.append("more than one action for a parent photo")
            if out.get("parents", parents) != parents:
                reasons.append("parent column disagrees with the instance")
    else:
        # The verb prints a summary only: it must match the reference
        # solution, which must itself be feasible and keep S0.
        if out["retained"] != len(ref["selected"]):
            reasons.append("retained count differs from the reference solver")
        if abs(out["cost_mb"] * 1e6 - ref["cost"]) > MB_2DP_BYTES + 1e-3:
            reasons.append("retained cost differs from the reference solver")
        if ref["cost"] > ref["budget"]:
            reasons.append("retained cost exceeds the budget")
        if not required <= set(ref["selected"]):
            reasons.append("S0 is not retained")
    if "photos" in out and out["photos"] != ref["photos"]:
        reasons.append("photo count differs")
    if not _close(out.get("score"), ref["score"], out["score_decimals"]):
        reasons.append("score differs from the reference solver")
    if "max" in out and not _close(out["max"], ref["max"], 3):
        reasons.append("printed maximum differs from sum of W(q)")
    if "ratio" in out and not _close(out["ratio"], ref["bound_score"] / ref["ub"], 3):
        reasons.append("printed online-bound ratio differs")
    if "remove_only" in out and not _close(out["remove_only"], ref["remove_only_score"], 2):
        reasons.append("remove-only score differs from the reference solver")
    return reasons


def check_traced(ref, traced, out):
    """Reasons the traced run's decision disagrees with the untraced verb's
    output ``out`` or with the reference score bits (empty = pass)."""
    reasons = []
    if traced is None:
        return ["traced run made no such decision"]
    if traced["score_bits"] != ref["score_bits"]:
        reasons.append("traced score bits differ from the reference solver")
    if out is None or not out.get("ok"):
        return reasons + ["untraced verb has no output to compare"]
    if "selected" in out:
        if traced["selected"] != out["selected"]:
            reasons.append("traced selection differs from the verb's")
    elif len(traced["selected"]) != out["retained"]:
        reasons.append("traced retained count differs from the verb's")
    if not _close(out["score"], traced["score"], out["score_decimals"]):
        reasons.append("traced score differs from the verb's")
    return reasons
