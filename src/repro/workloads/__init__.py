"""The paper's six benchmarks: three batch, three iterative."""

from typing import Optional

from ..config.presets import build_config
from .base import Workload
from .connected_components import ConnectedComponents
from .datagen.graphs import LARGE_GRAPH, MEDIUM_GRAPH, SMALL_GRAPH
from .grep import Grep
from .kmeans import KMeans
from .pagerank import PageRank
from .terasort import TeraSort
from .wordcount import WordCount

ALL_WORKLOADS = [WordCount, Grep, TeraSort, KMeans, PageRank,
                 ConnectedComponents]

__all__ = ["ALL_WORKLOADS", "ConnectedComponents", "Grep", "KMeans",
           "PageRank", "TeraSort", "WordCount", "Workload",
           "build_workload"]

GiB = float(2**30)


def build_workload(name: str, nodes: int, graph: str = "small",
                   iterations: Optional[int] = None,
                   data_scale: float = 1.0) -> Workload:
    """Instantiate a workload at its paper scale for ``nodes``.

    ``data_scale`` shrinks the byte-sized datasets (WordCount, Grep,
    TeraSort, K-Means) for what-if planning; graphs keep their size.
    """
    cfg = build_config(name, nodes)  # rejects unknown names
    graphs = {"small": SMALL_GRAPH, "medium": MEDIUM_GRAPH,
              "large": LARGE_GRAPH}
    if name == "wordcount":
        return WordCount(nodes * 24 * GiB * data_scale)
    if name == "grep":
        return Grep(nodes * 24 * GiB * data_scale)
    if name == "terasort":
        return TeraSort(nodes * 32 * GiB * data_scale,
                        num_partitions=cfg.flink.default_parallelism)
    if name == "kmeans":
        return KMeans(51 * GiB * data_scale, iterations=iterations or 10)
    if name == "pagerank":
        return PageRank(graphs[graph], iterations=iterations or 20,
                        edge_partitions=cfg.spark.edge_partitions)
    return ConnectedComponents(graphs[graph], iterations=iterations or 23,
                               edge_partitions=cfg.spark.edge_partitions)
