"""Regenerate perfbench/goldens.json.

The box goldens are tilde-S coefficients of each face cone, which count
its box points by shift (acceptance criterion 7's identity); the
ring-dims goldens are the S and tilde-S coefficient vectors that the
graded quotient dimensions must reproduce.  Both are computed on the
untransformed inputs through the face-sum path, not through box_points
or graded_quotient_dims.  The hodge goldens are literature values and
live in workloads.py.

    PYTHONPATH=src python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stringcone as sc  # noqa: E402
import workloads as wl  # noqa: E402


def box_goldens() -> dict:
    gens = wl.box_simplex_generators()
    out = {}
    for table in (wl.BOX_FACES, wl.BOX_SEEDED_FACES):
        for name, faces in table.items():
            for face in faces:
                face_gens = [gens[name][i] for i in face]
                cone = sc.cone_from_generators(face_gens, len(face_gens[0]))
                ts = sc.tilde_s_polynomial(cone)
                key = f"{name}:{','.join(map(str, face))}"
                out[key] = {str(l): ts.coeff(l)
                            for l in range(1, max(cone.dim, 1))
                            if ts.coeff(l)}
    return out


def ring_dims_goldens() -> dict:
    out = {}
    for name, vertices in {**wl.POLYGONS, **wl.POLYTOPES_3D}.items():
        cone = sc.gorenstein_cone_over(sc.lattice_polytope(vertices))
        out[name] = {
            "s": sc.s_polynomial(cone).coeff_list(cone.dim),
            "tilde_s": sc.tilde_s_polynomial(cone).coeff_list(cone.dim),
        }
    return out


def main() -> None:
    goldens = {"box": box_goldens(), "ring_dims": ring_dims_goldens()}
    wl.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    main()
