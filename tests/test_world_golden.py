"""Golden values for world generation and the dataset encoding.

Pins the sha256 of `models/styles.dm1` and of every `robot-N_{train,holdout}.ds1`
that `harness.write_inputs` writes, for the benchmark's size (3 robots, 3
samples per task) at world seeds 31, 32 and 36, the two-robot protocol-test
config and the default config. The files hold every generated pixel, class,
instance grid, instance record and label, so any change to a random draw, a
painted cell or the sample encoding shows here.

The values were recorded from the per-row, per-attempt generator that
predates the array-pass painting and scatter. They are the contract every
rewrite of `ScenarioGenerator`, `render` or the dataset codec must meet
exactly: never regenerate them to make a change pass.
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
