"""Golden values for world generation and the dataset encoding.

Pins the sha256 of `models/styles.dm1` and of every `robot-N_{train,holdout}.ds1`
that `harness.write_inputs` writes, for the benchmark's size (3 robots, 3
samples per task) at world seeds 31, 32 and 36, the two-robot protocol-test
config, and the default config at world seed 31 and at each of seeds 32-40
that a seed sweep runs. The files hold every generated pixel, class,
instance grid, instance record and label, so any change to a random draw, a
painted cell or the sample encoding shows here.

The values were recorded from the per-row, per-attempt generator that
predates the array-pass painting and scatter; the default config's seeds
32-40 were recorded from the numpy-mask scatter that the byte-row scatter
replaced. They are the contract every
rewrite of `generate_scenario`, `generate_dataset`, `render` or the dataset
codec must meet exactly: never regenerate them to make a change pass.
"""

import hashlib

import pytest

from parl.config import ExperimentConfig
from parl.harness import write_inputs

CONFIGS = {
    "bench-31": ExperimentConfig(robots=3, samples_per_task=3, world_seed=31),
    "bench-32": ExperimentConfig(robots=3, samples_per_task=3, world_seed=32),
    "bench-36": ExperimentConfig(robots=3, samples_per_task=3, world_seed=36),
    "protocol": ExperimentConfig(robots=2, samples_per_task=3),
    "default": ExperimentConfig(),
    # The world seeds a seed sweep runs: offsets k = 1..9 from the default 31.
    **{f"default-{seed}": ExperimentConfig(world_seed=seed) for seed in range(32, 41)},
}

GOLDEN = {
    "bench-31": {
        "models/styles.dm1": "6f109f2cf4b05c228fd3173ec65a970f0afbbcb6d87e0889e594de9b9874ee98",
        "robot-0_holdout.ds1": "8436d154e0d960282184b7b07d2c6d7a13aa0cdaa69c049a8e282cec11276e12",
        "robot-0_train.ds1": "112c0af33c20d0584197c4fa3bc5279b36d283da255ef65505666f2fb9873c41",
        "robot-1_holdout.ds1": "5a5eda76b0ca8e59c3b1f1bf178cecf55a5664cd48ca0473b70265993c714bde",
        "robot-1_train.ds1": "452b4af9b1dd99367e7c98841d3e92d096e5c82a01240038e895f27996dfe0db",
        "robot-2_holdout.ds1": "c67f5e22e8845083556e76d5300f1148e326450c75a3df848762f5b9555859e6",
        "robot-2_train.ds1": "796c5c1efd2c7ac708b87c5f1063f0132c755b20b161cda27b0fcebe21591ce3",
    },
    "bench-32": {
        "models/styles.dm1": "af3638eb62b4df5ed2ef50c7bd96d71f48770fd35382fdd8b6017abf41d780c4",
        "robot-0_holdout.ds1": "23adc70735dedd700a41ce3b18f0835da6e8e6123c5232681d18ed7d5a220f01",
        "robot-0_train.ds1": "3862d3a908545b01f5928bb3deb6beb462f0eae32ae86698896325dbfca7375c",
        "robot-1_holdout.ds1": "55e525e9d66fd9b9c13020ccf352b29cfc2452f442b4b9e182e9e4d4a40b8f36",
        "robot-1_train.ds1": "384e69f3968e4813eea3c1b6d79ac019566da160e49a9308b1d02d00fdebf516",
        "robot-2_holdout.ds1": "1f9c3b60768b55521645d0ecb7b238acf077bb28d697650761966fa10db22bbb",
        "robot-2_train.ds1": "260167c3a4557b9fec842c37dddc6568736e6103c0027c3c16a05cfa5669d9f6",
    },
    "bench-36": {
        "models/styles.dm1": "985f9e2f930438b023039f6fb96045f21233df603895d53c314e32d5dc2fd46a",
        "robot-0_holdout.ds1": "d060ccae3ad30fc4daee8ff0ccbf1677ec343b97c8961a4d94028a1e4191eb7e",
        "robot-0_train.ds1": "2fccdd96657104147bcac797cc1bc296aadec8ce9fc2619c4df4dbd7eac5a4b8",
        "robot-1_holdout.ds1": "f53ed25482b6d6048327e45cdf713ba8d61f691c31e4f557a49f319079f59bd9",
        "robot-1_train.ds1": "aeb90ccfb09569c1242cd5066895bce7ede006c28325fea94d61fd4d5c34c04f",
        "robot-2_holdout.ds1": "65fe4fbee50755192972ef0c919205c307aeec599d04285721a6491fb354c9dc",
        "robot-2_train.ds1": "f1f0ced8e061b684532407473f76adf45b295af62e2c331a3e2910244da13b61",
    },
    "protocol": {
        "models/styles.dm1": "58b183da6d5387046a05c8a0c399b1cedd3de67cd255366d63098de78fe5cdc0",
        "robot-0_holdout.ds1": "8436d154e0d960282184b7b07d2c6d7a13aa0cdaa69c049a8e282cec11276e12",
        "robot-0_train.ds1": "112c0af33c20d0584197c4fa3bc5279b36d283da255ef65505666f2fb9873c41",
        "robot-1_holdout.ds1": "a970aa0584a2837ac7249325b7dca19e0d9e689c8d8ead93f0f210279d843fe6",
        "robot-1_train.ds1": "2d36d77532b299cf26ce85caf0c1f55defa05b49e26125322e249401d82a5e40",
    },
    "default": {
        "models/styles.dm1": "6f109f2cf4b05c228fd3173ec65a970f0afbbcb6d87e0889e594de9b9874ee98",
        "robot-0_holdout.ds1": "f35e66db6a99ae141ddea98799d7dcf92b8585b33664cce8e46286fd75c240a6",
        "robot-0_train.ds1": "d79587b788807b067b54d0f3debaa80992016d8fad39ea1b556dfa463282ef25",
        "robot-1_holdout.ds1": "9d8a58c10cc6ccb14e1d45b8f34d97bdc9550e782f80f9ece6828ca95057be35",
        "robot-1_train.ds1": "85eb3c35cc09b09ac40efcdef73728d8e87c651e731b66cac7e2e4b0cddd994a",
        "robot-2_holdout.ds1": "ea92161ebd686e8ac99956eff20ebf38c7fd453152c3a368219da7a1aef6f030",
        "robot-2_train.ds1": "3cb558b041a7002fcd6b78c03827f54489ea742a06c1191a0d8acb527c904def",
    },
    "default-32": {
        "models/styles.dm1": "af3638eb62b4df5ed2ef50c7bd96d71f48770fd35382fdd8b6017abf41d780c4",
        "robot-0_holdout.ds1": "b4b16ffa27fd85467d5d3e457a8b2a89b8a2ee05aef06bda86ea4ef56e80f423",
        "robot-0_train.ds1": "1ea88ea71333a0fcf219f848ab9f0c5dce499ab126f74d142974a5cbe48e7cf2",
        "robot-1_holdout.ds1": "6afefb30d888695d456162f09331be4b0f633ccad167659aa7b3e77a245e2228",
        "robot-1_train.ds1": "05bb22aba8b053093839337b2e10d30db842e94ef265cd200a926c7488fd5023",
        "robot-2_holdout.ds1": "5727fa06abf9618c166674d3e93a6d32efdf6836e44080a2421c03ab8dc288db",
        "robot-2_train.ds1": "c8c4aa81b814f0304c52ba3984763c8c87498665282b5ffcc50be5e95753ea70",
    },
    "default-33": {
        "models/styles.dm1": "44dd2126b9712caa7142390f4cf5d4b94824c4040168e0aa19fac3ec8529ed23",
        "robot-0_holdout.ds1": "759afbf7682134c5b6168093ad77ef5f3a428c41078eb5f10eb150878629747a",
        "robot-0_train.ds1": "480f901ca2ba8429736e66321d32d3f568d2ee2ffa30c1e12bbfe63c3fc7311d",
        "robot-1_holdout.ds1": "5008fb0d54155138a67c2b3ad036d40bc41f92534708a374a06e1acf551c598e",
        "robot-1_train.ds1": "6891a4e120e9ac4a366ead5cdbcde4e7c6ef12b0c8a405642bd90a49a1573835",
        "robot-2_holdout.ds1": "4093899685e232a1973fde5a99557cab669342abe3006022282e1f1cd32aeaf1",
        "robot-2_train.ds1": "95cbe65cacfbf0996826a7ced847522a336cebdd40f3b784a663302b571e5b34",
    },
    "default-34": {
        "models/styles.dm1": "176c82a325fe04f1a0c19296e0b143e0bd491d244face0456ac8410fa9287427",
        "robot-0_holdout.ds1": "803857734e04dbe0f608312483964478f259cc99e5bf36ebe5959d3b5d6549d4",
        "robot-0_train.ds1": "bff0bb3a0f83be13d22c8643d315cee7eca581bb921baa5992884bc6da11b50d",
        "robot-1_holdout.ds1": "0a367f8701c01115d6c0ce24eb3db9625a90b4b9689d70f793675c2ca35becf1",
        "robot-1_train.ds1": "64f99073578dbdab329cc1a98c4eca2727672fbc6fecd34974b5043a75de550d",
        "robot-2_holdout.ds1": "9e8b0b8a7ab1b0475a8cf8e7b7349628f32506a229371113508452dbf633a5f1",
        "robot-2_train.ds1": "832091937cb8af732ac7bc9a89cb14f26cbd1f38fc7e3e16527558e249fed565",
    },
    "default-35": {
        "models/styles.dm1": "38de0a318c767ac786e845507d2ce7703459b2762e07791e78e822306fb23b09",
        "robot-0_holdout.ds1": "67666180456cb823fa2c28280280e2ef919ff012f322c5b7044aec13f9b6a89e",
        "robot-0_train.ds1": "6215d50bc6e36363c0cc00c2c64f715bc64a6afcab55a2e9a382e32d5120ac30",
        "robot-1_holdout.ds1": "1d06743cbeab29cdab04487bb0b6e836761fccf270d522f38b87bf97f7a3d837",
        "robot-1_train.ds1": "764a4fdbfdbf63f7e25ef7525511cb162f121283a3d34a68ac11a53a52a9e03a",
        "robot-2_holdout.ds1": "4443fd60f2aa2b98df0137a7266b4507c2691561454967e3483bbf8f2a0af3ad",
        "robot-2_train.ds1": "f745613144723af20934796b932e078c34a9985a391f92fcea7a516938dbdb78",
    },
    "default-36": {
        "models/styles.dm1": "985f9e2f930438b023039f6fb96045f21233df603895d53c314e32d5dc2fd46a",
        "robot-0_holdout.ds1": "df605b135a9d1af4cd9d9ac4bce034b16e9f76040ecc74b395d31a2456c8643a",
        "robot-0_train.ds1": "d82cfdb753fd367e4fc5964573d66bc08586f6369b08e8f76a059da9d9f5b57d",
        "robot-1_holdout.ds1": "3fffed63eaf7914b715b7ee3d638415a7cbf24c75a48d2374e6b57a272cd1e3e",
        "robot-1_train.ds1": "c0dea2a2d97a0b66f30a00f3fd180bf64be3653d930f6cd67a8a83a3752af59f",
        "robot-2_holdout.ds1": "cc4d556280f716499668a35c8cd37327f74a4ebc22fd8219aa6faab677f2d53a",
        "robot-2_train.ds1": "44023a5151a25f66b5ca62c0c34198a855032672ee47202b5f92d0009515206b",
    },
    "default-37": {
        "models/styles.dm1": "92c28fc695db301de3da0944f7fa6490d63624ccd68a1201e66804e1db5e5305",
        "robot-0_holdout.ds1": "7560ba98d64bdc19cef6de95cecc9422e425cc7442ac77460a69363f9ba31230",
        "robot-0_train.ds1": "756ffef25fc97a7eac3b2486a21fb028e2f0c6be44a4e101d80e89b7c2cffab9",
        "robot-1_holdout.ds1": "c515ab4d90f68828955389288bab65aea247e0637414b48638c011b127a43220",
        "robot-1_train.ds1": "3c67c01d74e13ca47627cbedaf0242d143428fffde850971291edd9438943a06",
        "robot-2_holdout.ds1": "b5cb826e8ec7dc775a5a34ef1ecb31f2921acc8eff9220f5c98d760a3a41f813",
        "robot-2_train.ds1": "dd1b15416aed9ccfe7a824cc6e7f2b140c8b3df1fca9b723fe37ba41ee79ddea",
    },
    "default-38": {
        "models/styles.dm1": "b4f8ff1c7af61eebcd1adc5c62d3e1d34bca54c10720b86993cb98c8da1f0595",
        "robot-0_holdout.ds1": "b3ea8f821f55fb891b807c43c187539fdbbf0003cbf3597f76f9cf05910e5a64",
        "robot-0_train.ds1": "9cb5a7a48637da8eb53dd6f9732dc31fbd2929dd7efe33477670f44cd84719a5",
        "robot-1_holdout.ds1": "e1a1ab35212854292d8733cc9b82c5e8ad7528db4fcd7e4875fafdbb370ae1f7",
        "robot-1_train.ds1": "746f6732fabe7db360c2ed97fcec0a94a6f17c4914dbbe8f96b9ad1be7eeca60",
        "robot-2_holdout.ds1": "bec3758fbe8c1ee24104da74ff31dbdd7517793aea820bde31c3a24bace18c62",
        "robot-2_train.ds1": "02e6d8f40658de2345bc0d39af310f177c8d0feda7565662a81cee9736148675",
    },
    "default-39": {
        "models/styles.dm1": "84dac08c763d0f436d34af64c9ca4b5717fd41afc93a010c03fc7b22b2ca95bb",
        "robot-0_holdout.ds1": "4a7d9aed004051e736c120add0d076276def0da479c81f33238da118beeca911",
        "robot-0_train.ds1": "a06a5a03b174b92f69535f72e3ae506498ead467d2d47dcce650ce20119267c1",
        "robot-1_holdout.ds1": "24ea4f46942541fcfe73dd031b070fa453ff649f7bd3053541ce9989652b0c64",
        "robot-1_train.ds1": "ea6a745a7050da8b6e1e3fd9a4a025adaa0ef9527b8166d15b8d0a302663695c",
        "robot-2_holdout.ds1": "28168067d611ad5582f6d55abcd2f28f2510314ec6e2f24ff7fb059f17e1b619",
        "robot-2_train.ds1": "6473521b550ec9b354406dae538a972a85974ba8170791f2a2be609d0b679c25",
    },
    "default-40": {
        "models/styles.dm1": "545aedd83b68d96869275b46d83490d6a85965b2588dab8d288f8cd324cb948f",
        "robot-0_holdout.ds1": "d4ab7a4bb6e187932f50c2a3849c73a9092ee13a9ad192d4450efc341486673b",
        "robot-0_train.ds1": "1bbdba05d85d121c5cd57af6c111ed0911b93e724f3dc23f55344c223e12a724",
        "robot-1_holdout.ds1": "eb7b9d9c65757dbed80aa8525306eacaa430ed653c5f6fa66437faaab0f7cf56",
        "robot-1_train.ds1": "8e5957717eb63be102188646dda0da806a9011a817cce8f49596699a5abb389c",
        "robot-2_holdout.ds1": "59b3a91cb030a5652f621b232994650e5bd46e7060fc5438891b81282b46ea9b",
        "robot-2_train.ds1": "f51cc7d8fa626cc7687728071416ddbf05386cf2cf92aabb2193c3f167eadc4d",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_written_inputs_match_golden_digests(name, tmp_path):
    write_inputs(CONFIGS[name], tmp_path)
    written = sorted([tmp_path / "models" / "styles.dm1", *tmp_path.glob("*.ds1")])
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in written
    }
    assert digests == GOLDEN[name]
