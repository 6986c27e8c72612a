"""Table 3: benchmark dataset statistics (plus our scale factors)."""

from repro.data import available_datasets, get_dataset

from conftest import report_table


def test_table3_dataset_statistics(benchmark):
    def build():
        rows = []
        for name in available_datasets():
            stats = get_dataset(name).stats()
            rows.append([
                stats["dataset"], stats["|V|"], stats["|E|"], stats["d_v"],
                stats["d_e"], f"{stats['max(t)']:.1e}",
                stats["paper |V|"], stats["paper |E|"],
                stats["node scale"], stats["edge scale"],
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report_table(
        "Table 3: benchmark datasets (synthetic analogs; paper-scale columns for reference)",
        ["dataset", "|V|", "|E|", "d_v", "d_e", "max(t)",
         "paper |V|", "paper |E|", "V scale", "E scale"],
        rows,
        filename="table3_datasets.txt",
        clock="none (dataset statistics)",
    )
    assert len(rows) == 6
