"""Guard-zone networks: simulated mean rate against the asymptotic prediction.

Sweeps the diversity order for both hard-core activation rules at two guard
radii, prints the per-point agreement, and renders the chart to SVG with the
bundled plotting command, in a temporary directory removed on exit.  A few
hundred replications per point keep this demo quick; the acceptance suite
runs the full thousand.
"""

import json
import math
import pathlib
import tempfile

from mmsenet import cli

RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))


def main():
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = pathlib.Path(tmp_name)
        for kind in ("hc1", "hc2"):
            report(kind, tmp)


def report(kind, tmp):
    config = {
        "schema_version": 1,
        "network": {"rho_p": RHO_P, "alpha": 4.0, "c": 50.0, "r_T": R_T},
        "model": {"name": kind, "h": [0.5 * R_T, 1.0 * R_T]},
        "sweep": {"N": [2, 4, 6, 8, 12, 16]},
        "replications": 300,
        "master_seed": 42,
    }
    cfg_path = tmp / f"{kind}.json"
    cfg_path.write_text(json.dumps(config))
    csv_path = tmp / f"{kind}.csv"
    svg_path = tmp / f"{kind}.svg"
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(csv_path),
              "--threads", "2"])
    cli.main(["plot", "--report", str(csv_path), "--out", str(svg_path),
              "--title", f"{kind} mean rate vs diversity order"])

    print(f"\n{kind}: simulated mean vs asymptote (300 replications)")
    cols = cli.CSV_COLUMNS.split(",")
    for line in csv_path.read_text().strip().split("\n")[1:]:
        row = dict(zip(cols, line.split(",")))
        print(f"  h={float(row['model_params'].split('=')[1]):6.3f} N={row['N']:>2s}: "
              f"mean {float(row['mean_rate']):6.3f}  asym {float(row['asymptote']):6.3f}  "
              f"gap {float(row['rel_gap']):.2%}")


if __name__ == "__main__":
    main()
