"""Byte-level regression of the output of the strata commands and `polygon`.

Each command's exit status and the sha256 of its stdout are pinned.  The
digests were recorded before the move graph was read off the enumeration
closure (it used to be recomputed from pairwise marked contractions), so
any change to which classes are joined, to node ids or to the order of
classes, edges or components fails here.  An intended byte change must
update a digest and say so in CHANGES.md.  The `check-codim1` digests were
re-pinned when its components came to name strata by the ids of `poset`
output instead of by index into the whole poset; what those bytes mean is
checked against `poset` and the full-poset check below.  The `enumerate`,
`poset` and `polygon` digests were recorded while graph rows were still
written from `to_json_dict` dict trees, before one writer in graphs.py came
to render every graph of the output from its slots.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tropilink import cli, moduli

from schottky_oracle import connected_through_codim_one as full_poset_check

GOLDEN = {
    "movegraph --p 3 --genus 2 --format json": (0, "e03155b87933a2430a0f0e397d223cb71cd00a073d5893beed05ef60390cbe24"),
    "movegraph --p 3 --genus 2 --3ec --format json": (0, "637d40fa984abda1a7b1ccc0fc3e7894726c1b61e3071de89280c4bfad186c0f"),
    "movegraph --p 3 --genus 3 --format json": (0, "702ca91956a6df394e203201cf85d8b66e1e913c215927ec44bce507e3054207"),
    "movegraph --p 3 --genus 3 --3ec --format json": (0, "a32e082bafec8a9fa353f4e4a66bced09d4eb920dfe41315690a3d84e3af49f7"),
    "movegraph --p 3 --genus 4 --format json": (0, "8f69750b7bffcfb0b3205d324cadb2ef4fc70b8858643fb2ea1ca59adfeb388d"),
    "movegraph --p 3 --genus 4 --3ec --format json": (0, "3078082e06bfc35d3ccb5e32efa8609687f0f8ea5033665c6410d66354fa7e11"),
    "movegraph --p 4 --genus 3 --format json": (0, "ec5e67936472a2e5629e73101e78b8f0e9fe1f17ca94c93a28f42075f18e89a5"),
    "movegraph --p 4 --genus 3 --3ec --format json": (0, "92c31b4971f8925ad1ec706b9c0c8cee6fe9979cb660b9a24b933e6071099303"),
    "movegraph --p 4 --genus 4 --format json": (0, "3f791f82af9ddad9c0d542273bbef3543c19b791aa0c4819b0368bd75aeabd04"),
    "movegraph --p 4 --genus 4 --3ec --format json": (0, "3311a1323186670649c18fbaeff05a84ed982a2da5b03145ea74b10eefbbd622"),
    "movegraph --p 5 --genus 4 --format json": (0, "70ac35d964340c589b5a261f6198237390b7c624d89a73f79fcc0acac99e29d6"),
    "movegraph --p 5 --genus 4 --3ec --format json": (0, "d6cb5f611dc547a7fc29d59aa276ce4f42cd0e9bb4e09cb3d9f3e1efb0866411"),
    "movegraph --p 3 --genus 1 --legs 3 --format json": (0, "83cc6cc63d7d483f3904209122a77d4ee09d3e558bd264fb55110a8a5c56fc57"),
    "movegraph --p 3 --genus 1 --legs 4 --format json": (0, "49b8fdcd38b7b4908ff9846323d731ac608248b2741f55fecbd27197b7baaaa3"),
    "movegraph --p 3 --genus 2 --legs 1 --format json": (0, "f80b4d93b44633017ecaa21b81fceae1199c427bd87db31c7988c24d9c67eb8d"),
    "movegraph --p 3 --genus 2 --legs 2 --format json": (0, "ca8c5415fc0ac90fdfa49518038f149012dfa09a19760129f1ee8448bd1da706"),
    "movegraph --p 3 --genus 3 --legs 1 --format json": (0, "3eb68730f69b6f0cc198c2117a4d642d00d5a6b2d602c15aff454b7b10dd57a3"),
    "movegraph --p 3 --genus 2 --legs 1 --3ec --format json": (0, "f26880d97d2cf664fd408dc7fa3302b1c529839ae73101fb57c69fbd3a25e852"),
    "movegraph --p 3 --genus 2 --format dot": (0, "23dd4fd7e6bdbcbe7c76b82c69b184cd47a646e223284fcc2ca2af37165bb515"),
    "movegraph --p 3 --genus 2 --3ec --format dot": (0, "17002b274bec783fc4548a618ced0380454b4214713692e38fa5b62eb796d17b"),
    "movegraph --p 3 --genus 3 --format dot": (0, "65c8c11564de7ece83da42117a72fdcfe07dbe9f15113ed95befe8f14eae1b96"),
    "movegraph --p 3 --genus 3 --3ec --format dot": (0, "ce0ee3905565c11bbc89eb714b7ec4b81b0b5ac6511c1fb0f5523f41d5df0245"),
    "movegraph --p 3 --genus 4 --format dot": (0, "76da1e8989abb69cfb0e2f5f6953f147d48c8244a1c8c4e0a97d2c34a8dbde1a"),
    "movegraph --p 3 --genus 4 --3ec --format dot": (0, "0c0337fb5d398a74d6a500d6f9efb0a411fb11f55d8b40be9db67e000ebd4cf0"),
    "movegraph --p 4 --genus 3 --format dot": (0, "9ef6fb54bfa13335f9b87d5456193b6af8a4eb18359f34afac144c74d8ec6e70"),
    "movegraph --p 4 --genus 3 --3ec --format dot": (0, "ba8416ef023a84f138e99d43b4e5d17d88e3fe65fbd24608f2530439c0ff082d"),
    "movegraph --p 4 --genus 4 --format dot": (0, "9a026ff7215eb48f91c9636b1d7e19a7a8aa8a3fbcad97589f18d07bd1f90c84"),
    "movegraph --p 4 --genus 4 --3ec --format dot": (0, "2acd0e7745b5c5ac72a6f2ebbd9ef91d192f8898276bdb3c404bccf91c1ad568"),
    "movegraph --p 5 --genus 4 --format dot": (0, "5902adebdaa78ce0c6f3d7e555f01c27df3a53c0adec6a9bf09ebcc246f05a28"),
    "movegraph --p 5 --genus 4 --3ec --format dot": (0, "2a4b9078a8258e445656741fe65be07ef6ae43ff864b6db220aecd44dcfdb499"),
    "movegraph --p 3 --genus 1 --legs 3 --format dot": (0, "d84e368042a683420e4f5b3e9125c8d1e813f24ff1d0e9571e7b6a648265d54f"),
    "movegraph --p 3 --genus 1 --legs 4 --format dot": (0, "463e0628510bf60620dce549293e7c199d200a0b4958cd9a62ae88a48573ada8"),
    "movegraph --p 3 --genus 2 --legs 1 --format dot": (0, "27a51916546870f6c69f09b8fe89c664d9f0d35a5fd212a62bd4164ae3c7c16b"),
    "movegraph --p 3 --genus 2 --legs 2 --format dot": (0, "210ba54366137a48251c01561fdee19fa2a324a0516587f085f9a1cbc005bae0"),
    "movegraph --p 3 --genus 3 --legs 1 --format dot": (0, "d63d9bec6bbef3c04cd81b48e8eee9354d3cfe5ebd5bca8c1dab3b0e745651c7"),
    "movegraph --p 3 --genus 2 --legs 1 --3ec --format dot": (0, "6996506f9876ad34a118a565d21eef60d072a12d8b27179b35d2c5d2aeea6826"),
    "check-codim1 --genus 2 --locus all": (0, "76c2fb629c18e4117cefb7b7a3ab7e18e7a48185df094e13666dfe073f8e054e"),
    "check-codim1 --genus 2 --locus pure": (0, "4e5d84e37f8496cf0978771fdc0ec601fd2126197ab70f05f4710a941cebc6a5"),
    "check-codim1 --genus 2 --locus 3ec": (0, "c8c9033a2bebbdf1f66431210efb75cf457ffc250aae19d827759812e9514f01"),
    "check-codim1 --genus 2 --locus preg:4": (0, "1ca7589f93d360695753468a73d6307b9b1769ce8059a82a9cbaefe772f764cb"),
    "check-codim1 --genus 3 --locus all": (0, "ecd1786ffa8399dc7bf5e93a9e6328116daab6f38c438f743f34fcaf3121407e"),
    "check-codim1 --genus 3 --locus pure": (0, "3d967706ea1d17af409883467b4284b2af173e54b9b40dcd3cfc7161ac32ebe2"),
    "check-codim1 --genus 3 --locus 3ec": (0, "48cd142f943880136a68c93e8e156c6a96b66263b5b646890e7f65b2dc3a5bce"),
    "check-codim1 --genus 3 --locus preg:4": (0, "64cabd0e8cb21e3ae0d3dda41506b1b3533dc4f609610f66cacfff995152f08e"),
    "check-codim1 --genus 4 --locus all": (0, "4a5105131bbca7af4b848629dae1b965047569c9e2fde461bfa8c1a09f1e0689"),
    "check-codim1 --genus 4 --locus pure": (0, "c9fbffdef1044c2111182aa109738395baceeb9a7aed55c271c93c4e6b26a3b2"),
    "check-codim1 --genus 4 --locus 3ec": (0, "155657c2acc7b0e9b7b8f16fd8b56a0d036cfdfb9aa6b16454812f4e80cac54c"),
    "check-codim1 --genus 4 --locus preg:4": (0, "6c20246bc01bf5f499657c4e3126e5f95182665b6247c3572dff96184c397888"),
    "check-codim1 --genus 1 --legs 2": (0, "956a724a015c3f04bcd82b321d6c6f745b63e3385b4770c4c494b4f49af921d7"),
    "check-codim1 --genus 1 --legs 2 --locus pure": (0, "f04ef21092533351ce136e8296b8d5c1bc42f256798cecdae81cc33a6c947ecb"),
    "check-codim1 --genus 2 --legs 1": (0, "ba9d0c94448f1aad05adc5d152c9e17a540e711d4ee63cbc14547aa71f3aef5b"),
    "check-codim1 --genus 2 --legs 1 --locus pure": (0, "4c7d4d2d35df45ace252f4345b9ba5bdb1ca0fa372ee76d6ce4067f5de4cea57"),
    "check-codim1 --genus 2 --legs 2": (0, "fb801a7e9bbe1b44a7ffc58371657acd8866881f221dc0d9f239b24258b2494d"),
    "check-codim1 --genus 2 --legs 2 --locus pure": (0, "673a7d2402e4ac6eafc1c3fbc14790676af8b72886e6ba38fb66c91982f97324"),
    "check-codim1 --genus 3 --legs 1": (0, "6843fe31844146f53e185e2a51b39535bbfd61b3180478e4b215e5fba39d4d77"),
    "check-codim1 --genus 3 --legs 1 --locus pure": (0, "18b781750fc4b5e8a10f55b7ae1cdebbef58e809defa8100ea23542d799f04dd"),
    "enumerate --p 3 --genus 4": (0, "1064fa7b26c1acccfb488f1dcb7f6767123df8f9da24c0c12212a8175d763d65"),
    "enumerate --p 4 --genus 4": (0, "f6ec0a1c43b51966eaceb504e376cc83ea92aded9f2b450d2af4e08a61bf32e2"),
    "enumerate --p 3 --genus 4 --3ec": (0, "6dd636ed95e5bc4bf4e95ea28cdaa1eab2c19c57d448cf2d8c023ae93996a3ce"),
    "enumerate --p 3 --genus 2 --legs 2": (0, "9e051d1918679eda7141908d86cee3b908706ec35e62edf5a8764dd6c895df09"),
    "poset --genus 3 --format json": (0, "4500783ad0a3f999a04f6ef86ca8fcfeaf651d966759bd63ea42da788103d94c"),
    "poset --genus 3 --legs 1 --format json": (0, "87e6ed78f70b8fea7615eaa61623eff7ecea7578b3a09e52ed006b061569b533"),
    "poset --genus 3 --locus 3ec --format json": (0, "900009ef93ad75f0eb9d20e31c8265bb840e8d95fe0e462dcb5eb4f34e74e363"),
    "polygon --p 3 --gamma 6 --format json": (0, "2510b8e30eb61bd95f77c7c8e51247bc4c7e89a3fd4023ee554ea158efc168c2"),
    "polygon --p 4 --gamma 5 --format json": (0, "f923d652f8eff90b0148a3114dd7695316da41a396efd92ccfaa8528c0deae94"),
}


def output(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv.split())
    return rc, out.getvalue()


def run(argv: str) -> tuple[int, str]:
    rc, text = output(argv)
    return rc, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_matches_golden_digest(argv):
    assert run(argv) == GOLDEN[argv], f"{argv}: output bytes changed"


@pytest.mark.parametrize(
    "argv", sorted(a for a in GOLDEN if a.startswith("check-codim1")))
def test_codim1_ids_are_the_near_top_strata_of_poset(argv):
    # `check-codim1` names the strata of dimension >= top-1 by the ids that
    # `poset` prints for the same locus, split as the whole poset splits
    # them, with the verdict and exit status that the whole poset gives
    rc, text = output(argv)
    doc = json.loads(text)
    _, poset_text = output(argv.replace("check-codim1", "poset", 1))
    strata = json.loads(poset_text)["strata"]
    top = max(s["dimension"] for s in strata)
    ids = [s["id"] for s in strata]

    po = moduli.build_poset(doc["genus"], doc["legs"], doc["locus"])
    connected, comps = full_poset_check(po)
    assert (rc, doc["connected"]) == (GOLDEN[argv][0], connected)
    assert rc == (0 if connected else 1)
    assert doc["top_dimension"] == top
    assert doc["components"] == [[ids[i] for i in c] for c in comps]
    assert sorted(i for c in doc["components"] for i in c) == \
        sorted(s["id"] for s in strata if s["dimension"] >= top - 1)
