"""Tests for the command-line experiment runner."""

import pytest

from repro.bench.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.model == "tgat"
        assert args.dataset == "wiki"
        assert args.framework == "tglite+opt"
        assert args.placement == "gpu"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "gcn"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "citeseer"])

    def test_capacity_flag(self):
        args = build_parser().parse_args(["--capacity-mb", "512"])
        assert args.capacity_mb == 512


class TestMain:
    def test_list_datasets(self, capsys):
        assert main(["--list-datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("wiki", "mooc", "reddit", "lastfm", "wikitalk", "gdelt"):
            assert name in out

    def test_small_training_run(self, capsys):
        rc = main([
            "--model", "jodie", "--dataset", "wiki", "--framework", "tglite",
            "--epochs", "1", "--batch-size", "500",
            "--dim-embed", "8", "--dim-time", "8", "--dim-mem", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "best val AP" in out

    def test_inference_flag(self, capsys):
        rc = main([
            "--model", "jodie", "--dataset", "wiki", "--framework", "tglite",
            "--epochs", "1", "--batch-size", "500", "--inference",
            "--dim-embed", "8", "--dim-time", "8", "--dim-mem", "8",
        ])
        assert rc == 0
        assert "test inference" in capsys.readouterr().out


@pytest.mark.parametrize("sub", ["serve", "scenarios"])
def test_serving_subcommands_refuse_the_memo_cache_budget(sub, capsys):
    """Serving keeps no memo ring, so there is nothing for the flag to size."""
    with pytest.raises(SystemExit) as exc:
        main([sub, "--store-hot-mb", "2"])
    assert exc.value.code == 2
    assert "--store-hot-mb" in capsys.readouterr().err


def test_trainer_keeps_the_memo_cache_budget():
    assert build_parser().parse_args(["--store-hot-mb", "2"]).store_hot_mb == 2.0


class TestServeFlagPairs:
    """A flag that only means something beside another one is a parse
    error without it, not a silently ignored flag."""

    @pytest.mark.parametrize("argv, needs", [
        (["--recover"], "--durable-dir"),
        (["--check-equivalence"], "--poison"),
    ], ids=["recover", "check-equivalence"])
    def test_flag_without_its_partner_is_a_parse_error(self, argv, needs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--events", "200", *argv])
        assert exc.value.code == 2
        assert needs in capsys.readouterr().err
