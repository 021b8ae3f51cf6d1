"""Every fixed CLI configuration of tier1.yml and the README reproduces its
golden record (tests/golden.py): exit code, stderr and non-float fields
exactly, floats and sampled CSV rows within golden.TOL."""

import copy

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.CONFIGS))
def test_configuration_matches_its_record(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mismatches, _ = golden.compare(golden.load(name), golden.run(golden.CONFIGS[name]))
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_record_has_a_configuration():
    assert sorted(path.stem for path in golden.RECORDS.glob("*.json")) == sorted(golden.CONFIGS)


@pytest.mark.parametrize("name,file,field", [
    ("certify_s3", "stdout", "ordering_gap"),
    ("solve_front", "out.csv", None),
])
def test_a_change_of_1e9_is_caught(name, file, field):
    record = golden.load(name)
    changed = copy.deepcopy(record)
    part = changed["files"][file]
    if field is None:
        part["sample"][1][1] += 1e-9
    else:
        part["floats"][field] += 1e-9
    mismatches, deltas = golden.compare(record, changed)
    assert len(mismatches) == 1 and file in mismatches[0]
    assert deltas[file] == pytest.approx(1e-9, rel=1e-3)
