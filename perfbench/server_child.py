"""Server child of the serve workload: the HTTP encoder in its own process.

    python3 server_child.py --size full --seed 1 --trace 0 --spans PATH --inject none

Builds the same backbone the client builds from the seed, serves it on a
free port of 127.0.0.1, prints the port on one line and serves until its
standard input closes. When traced it installs the benchmark's span
wrappers first, tags spans with the request's X-Request-Id header, and
writes the spans to PATH on exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from common import INJECTIONS, SIZES, build_model, dataset, model_seed  # noqa: E402
from promptir import serving  # noqa: E402
import tracing  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--inject", choices=INJECTIONS, default="none")
    args = ap.parse_args()

    p = SIZES[args.size]["serve"]
    ds = dataset(args.seed, p["topics"], p["passages_per_topic"], p["queries_per_topic"])
    model = build_model(ds, SIZES[args.size]["model"], model_seed(args.seed))

    if args.inject == "served_vector":
        encode_vector = serving.EncodingService.encode_vector

        def wrong_vector(self, request):
            return encode_vector(self, request) + np.float64(1e-3)

        serving.EncodingService.encode_vector = wrong_vector

    tracer = None
    if args.trace:
        tracer = tracing.Tracer().install(
            extra=[(serving._Handler, "do_POST", "serving.http.do_POST")])
        traced_post = serving._Handler.do_POST

        def do_post(handler):
            tracer.set_request(int(handler.headers.get("X-Request-Id", "-1")))
            return traced_post(handler)

        serving._Handler.do_POST = do_post

    with serving.running_server(model) as srv:
        if args.inject == "fingerprint":
            srv.server.service.fingerprint = "0" * 64
        print(srv.server.server_address[1], flush=True)
        sys.stdin.read()  # the client closes our stdin to stop us
    if tracer is not None:
        np.savez(args.spans, **tracer.spans())


if __name__ == "__main__":
    main()
