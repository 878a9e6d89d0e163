import pytest

from repro.eval import cross_validate, rotated_splits


class TestRotatedSplits:
    def test_folds_partition_addresses(self, tiny_dataset):
        splits = rotated_splits(tiny_dataset, n_folds=3)
        assert len(splits) == 3
        delivered = set(tiny_dataset.delivered_address_ids)
        all_test = []
        for split in splits:
            assert set(split.train) | set(split.val) | set(split.test) == delivered
            assert not set(split.train) & set(split.test)
            assert not set(split.val) & set(split.test)
            all_test.extend(split.test)
        # Every delivered address is tested exactly once across folds.
        assert sorted(all_test) == sorted(delivered)

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            rotated_splits(tiny_dataset, n_folds=1)


class TestCrossValidate:
    def test_aggregates_over_folds(self, tiny_dataset):
        results = cross_validate(
            tiny_dataset, ["Geocoding", "MaxTC-ILC"], n_folds=3, fast=True
        )
        assert set(results) == {"Geocoding", "MaxTC-ILC"}
        for cv in results.values():
            assert len(cv.fold_results) == 3
            lo, hi = cv.mae_ci
            assert lo <= cv.mae_mean <= hi
            assert 0.0 <= cv.beta50_mean <= 100.0
