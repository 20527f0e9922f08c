"""Byte-level regression of `movegraph` and `check-codim1` output.

Each command's exit status and the sha256 of its stdout are pinned.  The
digests were recorded before the move graph was read off the enumeration
closure (it used to be recomputed from pairwise marked contractions), so
any change to which classes are joined, to node ids or to the order of
classes, edges or components fails here.  An intended byte change must
update a digest and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from tropilink import cli

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
    "check-codim1 --genus 2 --locus all": (0, "1110d764d2f88919d51ce9b02e949d712a3ad55d748975d8e13786d0fa6b43a1"),
    "check-codim1 --genus 2 --locus pure": (0, "317712ad34760019d2f0e7b1f3963944a51c416d8fb864ffe211b0db4974900e"),
    "check-codim1 --genus 2 --locus 3ec": (0, "d09469dba1032ebf0f7f14ea6559306cbb79d157013ba7fb06ffa6dac534b20b"),
    "check-codim1 --genus 2 --locus preg:4": (0, "7ead06ee3c98b0d2b2ff1e34750f02808ad41cf6180323f1f12d26dba6c2a11b"),
    "check-codim1 --genus 3 --locus all": (0, "7fc6407db7642dbfce789c24788516c7fbf4e83ab91403e7d5f46ecac4325afb"),
    "check-codim1 --genus 3 --locus pure": (0, "30a402f6fc7c8f32f1279455f8b6259a093380dcb3f43cf2f513d9de38583ed5"),
    "check-codim1 --genus 3 --locus 3ec": (0, "df27524a6b8c7aba0f5cafd33b0dd4275eeffebb3bfedcd509f773d3cdbc906d"),
    "check-codim1 --genus 3 --locus preg:4": (0, "5ba3f12881f135ed50e62f818c0300150d056f69013fd09a55fc32155f5f928a"),
    "check-codim1 --genus 4 --locus all": (0, "71faa0d8b2c7e52de0b65cc6b1ccc06b192f083414c2fc71405332acb52a3ed1"),
    "check-codim1 --genus 4 --locus pure": (0, "5e02767ce673dab0050c256ecaa73e32da6a31b232774af0537ba362d51ec799"),
    "check-codim1 --genus 4 --locus 3ec": (0, "47a8b0cc697fe9e408805dd86fc5e7a4ce4954aebc3f63b7e638fb1dcfb40e93"),
    "check-codim1 --genus 4 --locus preg:4": (0, "6e27105550eec6803681ce8696484e6d89e5c16d170e47c736df3297d8235345"),
    "check-codim1 --genus 1 --legs 2": (0, "af3a268676ed934e4e13db739ff5f4155a52807d9a2a6d1edf6a6d85c5d57ac0"),
    "check-codim1 --genus 1 --legs 2 --locus pure": (0, "3ba8d1110b5e41e6e456dff450caef936c9060efe99012951aa19eb386e3866a"),
    "check-codim1 --genus 2 --legs 1": (0, "d4f6c87d075cbb482732c4604bed6dea348dc7b975ed8b7d202ef17271511073"),
    "check-codim1 --genus 2 --legs 1 --locus pure": (0, "44fb5e2798f24335e6dbf4e651f0507cdbcdc521707e8f4370bd4f5166f99cb2"),
    "check-codim1 --genus 2 --legs 2": (0, "39931deb1f70e5bbd582f2a551f79e8d87f310ae832d27e33bf80f4294af7ebe"),
    "check-codim1 --genus 2 --legs 2 --locus pure": (0, "983b33b0145282cda7a75abb64278fca8a69e292e57ec1a347542d2b13118bb7"),
    "check-codim1 --genus 3 --legs 1": (0, "73825716acf722e29b142c82a40d4f18ad1250c777868c60872f9e1fb4835d3c"),
    "check-codim1 --genus 3 --legs 1 --locus pure": (0, "e355eadde196ab4ef625ce8256a8d63f67f2a18acc543735392b80e92a2c76e3"),
}


def run(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv.split())
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_matches_golden_digest(argv):
    assert run(argv) == GOLDEN[argv], f"{argv}: output bytes changed"
