import pytest

from susygate.plotting import line_plot_svg


def test_plot_without_data_is_refused(tmp_path):
    for series in ([], [("empty", [], [])]):
        with pytest.raises(ValueError, match="^no data to plot$"):
            line_plot_svg(tmp_path / "plot.svg", series)
    assert not (tmp_path / "plot.svg").exists()
