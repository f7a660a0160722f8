"""The examples run and print what their docstrings promise."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# The two charts request_anatomy.py prints: host-centric fetch/publish
# bars under infless+, compute-dominated bars under GROUTER.
REQUEST_ANATOMY = """\
=== infless+ ===
request req-0: 105.08 ms (. queue, < get, c cold, # exec, > put, e egress)
gpu-denoise[get]     |<<<<<<<<<                                                   |
gpu-denoise[exec]    |        ###                                                 |
gpu-denoise[put]     |            >>>>>>>>>                                       |
unet-seg[get]        |                     <<<<<<<<<                              |
unet-seg[exec]       |                              ##############                |
unet-seg[put]        |                                           >>>              |
gpu-colorize[get]    |                                              <<<           |
gpu-colorize[exec]   |                                                 #          |
gpu-colorize[put]    |                                                   >>>>>>>>>|
gpu-colorize[egress] |                                                           e|
req-0: get=36.48ms, exec=32.10ms, put=36.47ms, egress=0.03ms

=== grouter ===
request req-0: 45.69 ms (. queue, < get, c cold, # exec, > put, e egress)
gpu-denoise[get]     |<<<<<<<                                                     |
gpu-denoise[exec]    |       ########                                             |
gpu-denoise[put]     |               >                                            |
unet-seg[get]        |               <<                                           |
unet-seg[exec]       |                 ################################           |
unet-seg[put]        |                                                >           |
gpu-colorize[get]    |                                                <           |
gpu-colorize[exec]   |                                                 ###        |
gpu-colorize[put]    |                                                    >       |
gpu-colorize[egress] |                                                    eeeeeee |
req-0: get=7.86ms, exec=32.10ms, put=0.05ms, egress=5.68ms

"""


def test_request_anatomy_prints_pinned_chart(capsys):
    runpy.run_path(str(EXAMPLES / "request_anatomy.py"), run_name="__main__")
    assert capsys.readouterr().out == REQUEST_ANATOMY
