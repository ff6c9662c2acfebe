import importlib.util
from pathlib import Path

import pytest

BENCH_RECORD = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


class TestBenchRecord:
    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys, repeats):
        spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
        bench_record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_record)
        # every perfbench/run.py process starts in run()
        started = []
        monkeypatch.setattr(bench_record, "run", lambda *args, **kw: started.append(args))
        out = tmp_path / "rec.json"
        with pytest.raises(SystemExit) as exc:
            bench_record.main(["--repeats", repeats, "--out", str(out)])
        assert exc.value.code == 2
        assert started == [] and not out.exists()
        assert "--repeats: must be at least 1" in capsys.readouterr().err
