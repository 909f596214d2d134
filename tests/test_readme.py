import contextlib
import io
import pathlib
import re
from fractions import Fraction

from poleplace.exactring import ratio

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_gives_the_gains_it_states():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    ns, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), ns)
    # the float gain, printed as the block's comment states it
    assert out.getvalue().splitlines()[0] == "[4.  7.5 9.5]"
    assert ratio(ns["g"]) == [Fraction(4), Fraction(15, 2), Fraction(19, 2)]
