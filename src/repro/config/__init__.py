"""Framework configuration: typed parameters, published presets and the
§IV configuration advisor."""

from .advisor import Advice, advise_flink, advise_spark
from .parameters import ConfigError, FlinkConfig, SparkConfig
from .presets import (CORES_PER_NODE, ExperimentConfig, build_config,
                      kmeans_preset, large_graph_preset,
                      medium_graph_preset, small_graph_preset,
                      terasort_preset, wordcount_grep_preset)

__all__ = [
    "Advice", "CORES_PER_NODE", "ConfigError", "ExperimentConfig",
    "FlinkConfig", "SparkConfig", "advise_flink", "advise_spark",
    "build_config",
    "kmeans_preset", "large_graph_preset", "medium_graph_preset",
    "small_graph_preset", "terasort_preset", "wordcount_grep_preset",
]
