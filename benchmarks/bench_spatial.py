"""Spatial-kernel benchmark: CSR diffusion convolution vs the dense path.

Sweeps node counts and graph densities, timing a full
``DiffusionGraphConv`` forward + backward (the spatial-mixing hot path of
every model in the zoo) with supports forced dense versus the auto
sparse/dense kernel.  Two further sections:

* **fused** — the fused multi-support ``spmm_multi`` (one CSR traversal for
  all S supports) against the per-support ``spmm`` loop;
* **augmented** — the URCL augmented-supports path (augmentation apply +
  support construction + forward + backward per step) under the dense
  fallback versus the CSR ``GraphDelta`` path.

Everything records to ``benchmarks/results/BENCH_spatial.json`` so the
perf trajectory is tracked per PR.  Correctness is asserted inline: dense
and sparse outputs must agree to float32-level tolerance on every
configuration (the augmented section additionally requires the two modes
to draw identical augmentation randomness).

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_spatial.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_spatial.py --scale smoke
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.augmentation import DropEdge, DropNodes, SubGraph
from repro.graph import Graph, sparse as graph_sparse
from repro.models.gcn import DiffusionGraphConv
from repro.tensor import Tensor, concatenate
from repro.tensor import functional as F
from repro.experiments.reporting import format_table

from records import append_record

# (node counts, densities, batch, time steps, channels, repetitions)
SWEEPS = {
    "smoke": ((96, 512), (0.05,), 2, 4, 8, 2),
    "bench": ((200, 500, 1000, 2000), (0.01, 0.05, 0.2, 0.5), 4, 6, 16, 3),
}

# The fused/augmented sections only make sense where CSR wins; cap the
# density so the full sweep stays minutes, not hours.
SPARSE_SECTION_MAX_DENSITY = 0.05


def make_adjacency(num_nodes: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Random weighted directed graph with roughly ``density`` non-zeros."""
    mask = rng.random((num_nodes, num_nodes)) < density
    np.fill_diagonal(mask, False)
    return np.where(mask, rng.random((num_nodes, num_nodes)), 0.0)


def time_forward_backward(fn, x_data: np.ndarray, reps: int) -> tuple[float, np.ndarray]:
    """Median seconds for one forward+backward of ``fn`` (a module or any
    callable on one tensor), plus the forward output."""
    timings = []
    output = None
    for _ in range(reps + 1):  # first iteration is warmup
        x = Tensor(x_data, requires_grad=True)
        if hasattr(fn, "zero_grad"):
            fn.zero_grad()
        start = time.perf_counter()
        out = fn(x)
        out.sum().backward()
        timings.append(time.perf_counter() - start)
        output = out.data
    return float(np.median(timings[1:])), output


def bench_config(num_nodes: int, graph_density: float, batch: int, steps: int,
                 channels: int, reps: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    adjacency = make_adjacency(num_nodes, graph_density, rng)
    x_data = rng.normal(size=(batch, steps, num_nodes, channels))

    graph_sparse.clear_support_cache()
    with graph_sparse.spatial_mode("dense"):
        conv_dense = DiffusionGraphConv(channels, channels, adjacency=adjacency, rng=seed)
        dense_seconds, dense_out = time_forward_backward(conv_dense, x_data, reps)
    with graph_sparse.spatial_mode("auto"):
        conv_auto = DiffusionGraphConv(channels, channels, adjacency=adjacency, rng=seed)
        auto_seconds, auto_out = time_forward_backward(conv_auto, x_data, reps)
        auto_supports = conv_auto.graph.conv_supports(2)
        support_modes = [
            "csr" if graph_sparse.sp.issparse(s) else "dense" for s in auto_supports
        ]

    max_abs_diff = float(np.max(np.abs(dense_out - auto_out)))
    scale = float(np.max(np.abs(dense_out))) or 1.0
    tolerance = 1e-5 * scale  # float32-level agreement
    if max_abs_diff > tolerance:
        raise AssertionError(
            f"dense/auto mismatch at N={num_nodes} d={graph_density}: "
            f"{max_abs_diff:.3e} > {tolerance:.3e}"
        )
    return {
        "num_nodes": num_nodes,
        "graph_density": graph_density,
        "support_densities": [round(graph_sparse.density(s), 4) for s in auto_supports],
        "support_modes": support_modes,
        "dense_seconds": dense_seconds,
        "auto_seconds": auto_seconds,
        "speedup": dense_seconds / auto_seconds,
        "max_abs_diff": max_abs_diff,
    }


def bench_fused(num_nodes: int, graph_density: float, batch: int, steps: int,
                channels: int, reps: int, seed: int) -> dict:
    """Fused multi-support spmm vs the per-support loop (both forced CSR).

    Times the spatial mix itself, forward + backward: ``F.spatial_mix`` once
    per support, concatenated along channels, against one
    ``F.spatial_mix_multi`` traversal of the fused stack.
    """
    rng = np.random.default_rng(seed)
    adjacency = make_adjacency(num_nodes, graph_density, rng)
    x_data = rng.normal(size=(batch, steps, num_nodes, channels))
    with graph_sparse.spatial_mode("sparse"):
        graph = Graph(adjacency, name="bench-fused")
        supports = graph.conv_supports(2)
        transposes = graph.support_transposes(2)
        fused = graph.fused_conv_supports(2)

    def loop(x):
        return concatenate(
            [F.spatial_mix(s, x, transpose=t) for s, t in zip(supports, transposes)],
            axis=-1,
        )

    outputs = {}
    timings = {}
    for label, mix in (("loop", loop), ("fused", lambda x: F.spatial_mix_multi(fused, x))):
        timings[label], outputs[label] = time_forward_backward(mix, x_data, reps)
    max_abs_diff = float(np.max(np.abs(outputs["loop"] - outputs["fused"])))
    scale = float(np.max(np.abs(outputs["loop"]))) or 1.0
    if max_abs_diff > 1e-5 * scale:
        raise AssertionError(
            f"fused/loop mismatch at N={num_nodes} d={graph_density}: {max_abs_diff:.3e}"
        )
    return {
        "num_nodes": num_nodes,
        "graph_density": graph_density,
        "loop_seconds": timings["loop"],
        "fused_seconds": timings["fused"],
        "speedup": timings["loop"] / timings["fused"],
        "max_abs_diff": max_abs_diff,
    }


def bench_augmented(num_nodes: int, graph_density: float, batch: int, steps: int,
                    channels: int, reps: int, seed: int) -> dict:
    """The URCL augmented-supports path: dense fallback vs the CSR delta path.

    Each timed step is one contrastive-branch unit of work: apply a spatial
    augmentation to the shared graph, build the perturbed graph's diffusion
    supports, and run the graph convolution forward + backward on the
    augmented view.  Both modes replay identical augmentation randomness,
    and the final outputs are checked for agreement.
    """
    rng = np.random.default_rng(seed)
    adjacency = make_adjacency(num_nodes, graph_density, rng)
    x_data = rng.normal(size=(batch, steps, num_nodes, channels))
    timings = {}
    outputs = {}
    for mode in ("dense", "auto"):
        graph_sparse.clear_support_cache()
        with graph_sparse.spatial_mode(mode):
            graph = Graph(adjacency, name=f"bench-aug-{mode}")
            conv = DiffusionGraphConv(channels, channels, adjacency=graph, rng=seed)
            augmentations = [
                DropEdge(sample_ratio=0.3, rng=seed),
                DropNodes(drop_ratio=0.1, rng=seed + 1),
                SubGraph(keep_ratio=0.7, rng=seed + 2),
            ]
            samples = []
            for rep in range(reps + 1):  # first iteration is warmup
                augmentation = augmentations[rep % len(augmentations)]
                conv.zero_grad()
                start = time.perf_counter()
                sample = augmentation(x_data, graph)
                x = Tensor(sample.observations, requires_grad=True)
                out = conv(x, adjacency=sample.graph)
                out.sum().backward()
                samples.append(time.perf_counter() - start)
                outputs[mode] = out.data
            timings[mode] = float(np.median(samples[1:]))
    max_abs_diff = float(np.max(np.abs(outputs["dense"] - outputs["auto"])))
    scale = float(np.max(np.abs(outputs["dense"]))) or 1.0
    if max_abs_diff > 1e-5 * scale:
        raise AssertionError(
            f"augmented dense/delta mismatch at N={num_nodes} d={graph_density}: "
            f"{max_abs_diff:.3e}"
        )
    stats = graph_sparse.support_cache_stats()
    return {
        "num_nodes": num_nodes,
        "graph_density": graph_density,
        "dense_seconds": timings["dense"],
        "delta_seconds": timings["auto"],
        "speedup": timings["dense"] / timings["auto"],
        "max_abs_diff": max_abs_diff,
        "delta_hits": stats["delta_hits"],
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    node_counts, densities, batch, steps, channels, reps = SWEEPS[args.scale]
    record = {
        "benchmark": "spatial",
        "scale": args.scale,
        "seed": args.seed,
        "batch": batch,
        "time_steps": steps,
        "channels": channels,
        "configs": [],
    }
    for num_nodes in node_counts:
        for graph_density in densities:
            record["configs"].append(
                bench_config(num_nodes, graph_density, batch, steps, channels, reps, args.seed)
            )
    sparse_configs = [
        (n, d) for n in node_counts for d in densities
        if d <= SPARSE_SECTION_MAX_DENSITY
    ]
    record["fused"] = [
        bench_fused(n, d, batch, steps, channels, reps, args.seed)
        for n, d in sparse_configs
    ]
    record["augmented"] = [
        bench_augmented(n, d, batch, steps, channels, reps, args.seed)
        for n, d in sparse_configs
    ]

    headers = ["N", "density", "modes", "dense s", "auto s", "speedup", "max|diff|"]
    rows = [
        [
            c["num_nodes"],
            c["graph_density"],
            "/".join(c["support_modes"]),
            c["dense_seconds"],
            c["auto_seconds"],
            c["speedup"],
            c["max_abs_diff"],
        ]
        for c in record["configs"]
    ]
    print(format_table(headers, rows, title=f"Spatial mixing — dense vs auto ({args.scale})"))

    fused_rows = [
        [c["num_nodes"], c["graph_density"], c["loop_seconds"], c["fused_seconds"],
         c["speedup"], c["max_abs_diff"]]
        for c in record["fused"]
    ]
    print(format_table(
        ["N", "density", "loop s", "fused s", "speedup", "max|diff|"],
        fused_rows, title="Fused multi-support spmm — per-support loop vs one traversal",
    ))
    augmented_rows = [
        [c["num_nodes"], c["graph_density"], c["dense_seconds"], c["delta_seconds"],
         c["speedup"], c["max_abs_diff"]]
        for c in record["augmented"]
    ]
    print(format_table(
        ["N", "density", "dense s", "delta s", "speedup", "max|diff|"],
        augmented_rows, title="Augmented-supports path — dense fallback vs CSR delta",
    ))
    sparse_wins = [
        c["speedup"] for c in record["configs"]
        if c["num_nodes"] >= 500 and "csr" in c["support_modes"]
    ]
    if sparse_wins:
        record["best_sparse_speedup"] = max(sparse_wins)
        print(f"best sparse speedup at N>=500: {record['best_sparse_speedup']:.2f}x")
    fallbacks = [
        c["speedup"] for c in record["configs"] if "csr" not in c["support_modes"]
    ]
    if fallbacks:
        record["worst_fallback_speedup"] = min(fallbacks)
        print(f"worst dense-fallback ratio: {record['worst_fallback_speedup']:.2f}x")
    fused_wins = [c["speedup"] for c in record["fused"] if c["num_nodes"] >= 500]
    if fused_wins:
        record["best_fused_speedup"] = max(fused_wins)
        print(f"best fused-spmm speedup at N>=500: {record['best_fused_speedup']:.2f}x")
    augmented_wins = [
        c["speedup"] for c in record["augmented"] if c["num_nodes"] >= 500
    ]
    if augmented_wins:
        record["best_augmented_speedup"] = max(augmented_wins)
        record["worst_augmented_speedup"] = min(augmented_wins)
        print(
            f"augmented delta path at N>=500: best {record['best_augmented_speedup']:.2f}x, "
            f"worst {record['worst_augmented_speedup']:.2f}x vs dense fallback"
        )

    append_record("spatial", record)
    return record


if __name__ == "__main__":
    main()
