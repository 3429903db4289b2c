"""The paper's published parameter settings (Tables II, III, V and VI).

Each function returns the pair ``(SparkConfig, FlinkConfig)`` plus any
experiment-level settings (HDFS block size) for one experiment family,
exactly as printed in the paper.  Values outside the published tables
follow the paper's stated formulas (e.g. Table V's
``spark.def.parallelism = nodes * cores * 6``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .parameters import ConfigError, FlinkConfig, SparkConfig

__all__ = [
    "ExperimentConfig",
    "wordcount_grep_preset", "terasort_preset",
    "kmeans_preset", "small_graph_preset", "medium_graph_preset",
    "large_graph_preset", "build_config",
    "CORES_PER_NODE",
]

KiB = 1024
MiB = 2**20
GiB = 2**30

CORES_PER_NODE = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the harness needs to configure one run."""

    spark: SparkConfig
    flink: FlinkConfig
    hdfs_block_size: float
    nodes: int


# ----------------------------------------------------------------------
# Table II — Word Count and Grep (fixed 24 GB per node).
# ----------------------------------------------------------------------
_TABLE_II_SPARK_PARALLELISM: Dict[int, int] = {
    2: 192, 4: 384, 8: 768, 16: 1536, 32: 1024,
}
_TABLE_II_FLINK_PARALLELISM: Dict[int, int] = {
    2: 32, 4: 64, 8: 128, 16: 256, 32: 512,
}
_TABLE_II_FLINK_MEMORY_GB: Dict[int, float] = {
    2: 4, 4: 4, 8: 4, 16: 4, 32: 11,
}


def wordcount_grep_preset(nodes: int) -> ExperimentConfig:
    """Table II settings; interpolated by formula off-table."""
    spark_par = _TABLE_II_SPARK_PARALLELISM.get(
        nodes, nodes * CORES_PER_NODE * 6)
    flink_par = _TABLE_II_FLINK_PARALLELISM.get(nodes, nodes * CORES_PER_NODE)
    flink_mem = _TABLE_II_FLINK_MEMORY_GB.get(nodes, 4 if nodes < 32 else 11)
    spark = SparkConfig(
        default_parallelism=spark_par,
        executor_memory=22 * GiB,
        shuffle_file_buffer=64 * KiB,
    )
    flink = FlinkConfig(
        default_parallelism=flink_par,
        taskmanager_memory=flink_mem * GiB,
        network_buffers=nodes * 2048,
        buffer_size=64 * KiB,
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=256 * MiB, nodes=nodes)


# ----------------------------------------------------------------------
# Table III — Tera Sort.
# ----------------------------------------------------------------------
_TABLE_III_SPARK_PARALLELISM: Dict[int, int] = {
    17: 544, 34: 1088, 63: 1984, 55: 1760, 73: 2336, 97: 3104,
}
_TABLE_III_FLINK_PARALLELISM: Dict[int, int] = {
    17: 134, 34: 270, 63: 500, 55: 475, 73: 580, 97: 750,
}


def terasort_preset(nodes: int) -> ExperimentConfig:
    """Table III settings: 62 GB memory both; 1024 MB blocks;
    partitions equal to the Flink parallelism."""
    spark_par = _TABLE_III_SPARK_PARALLELISM.get(nodes, nodes * CORES_PER_NODE * 2)
    flink_par = _TABLE_III_FLINK_PARALLELISM.get(
        nodes, max(1, nodes * CORES_PER_NODE // 2))
    spark = SparkConfig(
        default_parallelism=spark_par,
        executor_memory=62 * GiB,
        shuffle_file_buffer=128 * KiB,
        # "the fractions of the JVM heap used for storage and shuffle
        # are statically initialized ... to ensure enough shuffling
        # space" (§IV-C): Tera Sort caches nothing and shuffles
        # everything.
        storage_fraction=0.1,
        shuffle_fraction=0.6,
    )
    flink = FlinkConfig(
        default_parallelism=flink_par,
        taskmanager_memory=62 * GiB,
        network_buffers=nodes * 1024,
        buffer_size=128 * KiB,
        # "half the number of cores in order to match the number of
        # custom partitions, otherwise Flink fails due to insufficient
        # task slots"
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=1024 * MiB, nodes=nodes)


# ----------------------------------------------------------------------
# K-Means (51 GB dataset, 10 iterations; §VI-D uses up to 24 nodes).
# ----------------------------------------------------------------------
def kmeans_preset(nodes: int) -> ExperimentConfig:
    spark = SparkConfig(
        default_parallelism=nodes * CORES_PER_NODE * 2,
        executor_memory=22 * GiB,
    )
    flink = FlinkConfig(
        default_parallelism=nodes * CORES_PER_NODE,
        taskmanager_memory=18 * GiB,
        network_buffers=nodes * 2048,
        buffer_size=64 * KiB,
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=256 * MiB, nodes=nodes)


# ----------------------------------------------------------------------
# Table V — Small graph formulas.
# ----------------------------------------------------------------------
def small_graph_preset(nodes: int) -> ExperimentConfig:
    spark = SparkConfig(
        default_parallelism=nodes * CORES_PER_NODE * 6,
        executor_memory=22 * GiB,
        edge_partitions=nodes * CORES_PER_NODE,
    )
    flink = FlinkConfig(
        default_parallelism=nodes * CORES_PER_NODE,
        taskmanager_memory=18 * GiB,
        network_buffers=CORES_PER_NODE * CORES_PER_NODE * nodes * 16,
        buffer_size=32 * KiB,
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=256 * MiB, nodes=nodes)


# ----------------------------------------------------------------------
# Table VI — Medium graph.
# ----------------------------------------------------------------------
_TABLE_VI = {
    # nodes: (spark_par, flink_par, spark_mem_gb, flink_mem_gb, edge_parts)
    24: (1440, 288, 22, 18, 1440),
    27: (1620, 297, 96, 18, 256),
    34: (1632, 442, 62, 62, 320),
    55: (2640, 715, 62, 62, 480),
}


def medium_graph_preset(nodes: int) -> ExperimentConfig:
    if nodes not in _TABLE_VI:
        raise ConfigError(f"Table VI defines nodes in {sorted(_TABLE_VI)}, "
                          f"got {nodes}")
    spark_par, flink_par, s_mem, f_mem, edge_parts = _TABLE_VI[nodes]
    spark = SparkConfig(
        default_parallelism=spark_par,
        executor_memory=s_mem * GiB,
        edge_partitions=edge_parts,
    )
    flink = FlinkConfig(
        default_parallelism=flink_par,
        taskmanager_memory=f_mem * GiB,
        network_buffers=CORES_PER_NODE * CORES_PER_NODE * nodes * 16,
        buffer_size=32 * KiB,
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=256 * MiB, nodes=nodes)


# ----------------------------------------------------------------------
# Table VII — Large graph (§VI-E).
# ----------------------------------------------------------------------
def large_graph_preset(nodes: int, *, double_edge_partitions: bool = False,
                       flink_reduced_parallelism: bool = True) -> ExperimentConfig:
    """Large-graph settings as described in the Table VII discussion.

    ``double_edge_partitions``: at 27/44 nodes Spark "processed
    correctly the graph load stage only when we doubled the number of
    edge partitions from a value equal to the total number of cores".

    ``flink_reduced_parallelism``: at 97 nodes Flink's parallelism was
    set "to three quarters of the total number of cores in order to
    allocate more memory to each CoGroup operator".
    """
    total_cores = nodes * CORES_PER_NODE
    edge_parts = total_cores * (2 if double_edge_partitions else 1)
    spark = SparkConfig(
        default_parallelism=total_cores * 2,
        executor_memory=96 * GiB,
        edge_partitions=edge_parts,
    )
    flink_par = (total_cores * 3 // 4) if flink_reduced_parallelism else total_cores
    flink = FlinkConfig(
        default_parallelism=flink_par,
        taskmanager_memory=96 * GiB,
        network_buffers=CORES_PER_NODE * CORES_PER_NODE * nodes * 16,
        buffer_size=32 * KiB,
        task_slots=CORES_PER_NODE,
    )
    return ExperimentConfig(spark=spark, flink=flink,
                            hdfs_block_size=256 * MiB, nodes=nodes)


def build_config(workload: str, nodes: int) -> ExperimentConfig:
    """The paper's preset for a workload at a scale."""
    if workload in ("wordcount", "grep"):
        return wordcount_grep_preset(nodes)
    if workload == "terasort":
        return terasort_preset(nodes)
    if workload == "kmeans":
        return kmeans_preset(nodes)
    if workload in ("pagerank", "connected-components"):
        return small_graph_preset(nodes)
    raise ValueError(f"unknown workload {workload!r}")
