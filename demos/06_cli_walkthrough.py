"""Drive the cry command line end to end in a temporary directory.

Each step shells out exactly as a user would type it.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(*args):
    cmd = [sys.executable, "-m", "cryscreen.cli", *args]
    print(f"\n$ cry {' '.join(args)}", flush=True)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in proc.stderr.splitlines()[-2:]:  # progress tail, not every file
        print(f"  {line}", flush=True)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return proc.stdout


with tempfile.TemporaryDirectory(prefix="cry_cli_demo_") as root:
    corpus = os.path.join(root, "corpus")
    run("synth", "--out", corpus, "--n-per-class", "8", "--seed", "2")

    features = os.path.join(root, "features.csv")
    run("extract", "--manifest", os.path.join(corpus, "manifest.csv"), "--out", features)

    doc = run("segment", os.path.join(corpus, "rec0000.wav"))
    seg = json.loads(doc)
    print(f"segment stdout: {len(seg['expirations'])} units, {seg['total_cry_seconds']}s of cry")

    selection = os.path.join(root, "selection.json")
    run("select", "--features", features, "--out", selection)

    # every fourth row held out for test, the rest train/val
    with open(features) as fh:
        paths = [line.split(",", 1)[0] for line in fh.read().splitlines()[1:]]
    split = os.path.join(root, "split.csv")
    with open(split, "w") as fh:
        fh.write("path,split\n")
        for i, p in enumerate(paths):
            fh.write(f"{p},{'test' if i % 4 == 3 else 'val' if i % 4 == 2 else 'train'}\n")
    config = os.path.join(root, "cry.cfg")
    with open(config, "w") as fh:
        fh.write("cv_folds=3\n")

    model, metrics = os.path.join(root, "model.json"), os.path.join(root, "metrics.json")
    run("train-eval", "--features", features, "--split", split, "--feature-set", "both",
        "--model-out", model, "--metrics-out", metrics, "--config", config)

    with open(metrics) as fh:
        m = json.load(fh)
    print(f"\nmetrics: AUC {m['auc']:.3f} on {m['n_test']} test recordings, "
          f"penalty {m['reg_strength']:g}")
