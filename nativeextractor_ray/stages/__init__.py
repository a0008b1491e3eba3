"""``map_batches`` stages: miner state compiled once per worker process,
per-batch Arrow transforms."""

from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS, MinerPool
from nativeextractor_ray.stages.kg_extract import KgExtract

__all__ = ["MinerPool", "KgExtract", "STD_MINER_SPECS"]
