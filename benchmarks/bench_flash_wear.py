"""Ablation (ours): flash erase wear of in-place updates vs reprogramming.

The paper's devices keep their image in flash, where writes cost
whole-block erase cycles and endurance is finite.  This bench maps the
in-place applier's byte writes onto an erase-block model and compares
three strategies over two edit profiles:

* **naive reprogram** — erase and rewrite every block (the simplest
  bootloader);
* **compare-skip reprogram** — read-compare-write, erasing only blocks
  whose content changed (needs the full image in hand — i.e. the full
  transfer the delta was avoiding);
* **in-place delta** — the converted delta applied block-buffered.

With *in-place edits* (content replaced at fixed offsets) the delta
touches only the edited blocks, matching compare-skip at a fraction of
the transfer.  With *shifting edits* (inserts/deletes slide every later
byte) all strategies must rewrite most blocks, and the delta's
out-of-order writes revisit blocks a sequential pass visits once — the
honest finding: in-place reconstruction saves *transfer* always, but
saves *wear* only when the release doesn't shift the image.
"""

from __future__ import annotations

import random

import pytest

from conftest import write_report
from repro.analysis.tables import render_table
from repro.core.apply import apply_in_place
from repro.core.convert import make_in_place
from repro.delta import correcting_delta
from repro.device.flash import FlashArray, full_reprogram, measure_update_wear
from repro.workloads import MutationProfile, make_binary_blob, mutate

BLOCK_SIZE = 4096
IMAGE_SIZE = 192 * 1024

#: Replace-only profile: edits overwrite bytes where they stand.
REPLACE_ONLY = MutationProfile(
    edits_per_kb=0.06, max_edit=800,
    weights={"insert": 0.0, "delete": 0.0, "replace": 1.0,
             "move": 0.0, "duplicate": 0.0, "swap": 0.0},
)


def _wear_rows(ref: bytes, ver: bytes):
    script = make_in_place(correcting_delta(ref, ver), ref).script
    delta_wear, smart_wear = measure_update_wear(ref, ver, script,
                                                 block_size=BLOCK_SIZE)

    naive = FlashArray(ref, block_size=BLOCK_SIZE, compare_before_write=False)
    full_reprogram(naive, ver)
    naive_wear = naive.wear()
    return delta_wear, smart_wear, naive_wear


def test_wear_by_edit_profile(benchmark):
    rng = random.Random(42)
    ref = make_binary_blob(rng, IMAGE_SIZE)
    replace_ver = mutate(ref, rng, REPLACE_ONLY)
    shifty_ver = mutate(ref, rng)  # default profile: inserts and deletes

    def run():
        return {
            "replace-only edits": _wear_rows(ref, replace_ver),
            "shifting edits": _wear_rows(ref, shifty_ver),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [["workload", "in-place delta", "compare-skip full", "naive full",
              "delta max/block"]]
    for label, (delta, smart, naive) in results.items():
        table.append([
            label,
            "%d erases" % delta.total_erases,
            "%d erases" % smart.total_erases,
            "%d erases" % naive.total_erases,
            str(delta.max_erases),
        ])
    write_report(
        "flash_wear",
        "erase cycles per update strategy (192 KB image, 4 KiB blocks)\n\n"
        + render_table(table)
        + "\n\nin-place reconstruction always saves transfer; it saves wear\n"
          "when edits do not shift the image (replace-only row), while\n"
          "shifting releases force every strategy to rewrite most blocks.",
    )

    delta_r, smart_r, naive_r = results["replace-only edits"]
    # Replace-only: the delta touches only edited blocks, far below naive.
    assert delta_r.total_erases <= smart_r.total_erases * 1.5 + 2
    assert delta_r.total_erases < naive_r.total_erases / 2
    delta_s, smart_s, naive_s = results["shifting edits"]
    # Shifting: nobody beats the block count by much; the delta's
    # out-of-order revisits stay within a small factor of sequential.
    assert delta_s.total_erases <= 6 * smart_s.total_erases
    assert naive_s.total_erases >= smart_s.total_erases


def test_bench_flash_apply_kernel(benchmark):
    rng = random.Random(7)
    ref = make_binary_blob(rng, IMAGE_SIZE)
    ver = mutate(ref, rng, REPLACE_ONLY)
    script = make_in_place(correcting_delta(ref, ver), ref).script

    def run():
        flash = FlashArray(ref, block_size=BLOCK_SIZE)
        apply_in_place(script, flash, strict=False)
        return flash.wear().total_erases

    benchmark(run)
