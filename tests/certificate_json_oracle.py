"""The JSON document of a linkage certificate, as a tree of dicts and lists.

This is the certificate writer the package used before it rendered the
text straight from the chain (`certificates._certificate_json`); it stays
as that writer's oracle: `graphs.dumps_canonical` of this document is the
certificate's bytes.  Witness keys are decimal strings, so json's
sort_keys orders them as strings ("10" before "2").
"""

from tropilink.graphs import to_json_dict


def certificate_to_json_dict(cert) -> dict:
    steps = []
    for i, s in enumerate(cert.steps):
        av, ae, al = s.witness
        entry = {
            "left_index": i,
            "left_edge": s.left_edge,
            "right_edge": s.right_edge,
            "witness": {
                "vertices": {str(k): v for k, v in sorted(av.items())},
                "edges": {str(k): v for k, v in sorted(ae.items())},
                "legs": {str(k): v for k, v in sorted(al.items())},
            },
        }
        if s.cert_cycles is not None:
            entry["cycles"] = [list(c) for c in s.cert_cycles]
        steps.append(entry)
    return {
        "mode": cert.mode,
        "p": cert.p,
        "leg_mode": "labeled",
        "graphs": [to_json_dict(g) for g in cert.graphs],
        "steps": steps,
    }
