"""The seeded benchmark harness: min/avg/max placed over a block of seeds.

Mirrors the randomized-restart protocol used for the published quality
tables; 20 seeds here keep the demo quick (the acceptance suite runs 100).
"""

from wangtiler.bench import BenchConfig, run_benchmark

config = BenchConfig(
    sets=("complete:2", "finite1", "finite2", "ammann16"),
    sizes=((20, 20),),
    algs=("1", "2", "3"),
    improve=True,
    seeds=20,
)
report = run_benchmark(config)
print(report.to_text())

with open("bench.json", "w") as f:
    f.write(report.to_json())
print("wrote bench.json")
