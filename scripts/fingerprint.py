#!/usr/bin/env python3
"""Print one sha256 over everything a small training grid produces: every
epoch's train and validation loss, every epoch checkpoint's bytes, the
averaged final checkpoint's bytes, and the final model's fixed- and
variable-mode eval scores, for the three desk variants x both block kinds.

A change meant to be bit-identical must print the same digest before and
after. Run the copy of this script in each checkout; it imports tcmnet from
the `src/` beside it:

    python scripts/fingerprint.py
"""

import hashlib
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tcmnet.data import CorpusSpec, generate_corpus
from tcmnet.experiments import DESK_VARIANTS, VARIANTS
from tcmnet.metrics import score_split
from tcmnet.model import Model, ModelConfig
from tcmnet.train import TrainConfig, load_into_model, save_checkpoint, train

CORPUS = CorpusSpec(n_train=32, n_dev=12, n_eval=12, feature_dim=16, t_min=20,
                    t_max=30, band_width=4, seg_len=10, amplitude=0.7, seed=5)
MODEL = ModelConfig(feature_dim=16, dim=16, heads=4, blocks=2, conv_kernel=5,
                    dropout=0.2)
TRAIN = TrainConfig(lr=3e-3, weight_decay=1e-4, batch_size=8, max_epochs=3,
                    top_k_average=2, target_T=24)


def fingerprint(lr=TRAIN.lr):
    """The hex sha256 of the grid's losses, checkpoints and scores."""
    digest = hashlib.sha256()
    corpus = generate_corpus(CORPUS)
    toggles = dict(VARIANTS)
    tconf = replace(TRAIN, lr=lr)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = Path(tmp) / "ckpt"
        for kind in ("conformer", "transformer"):
            for name in DESK_VARIANTS:
                model = Model(replace(MODEL, block_kind=kind, toggles=toggles[name]),
                              seed=tconf.seed)
                result = train(model, corpus["train"], corpus["dev"], tconf,
                               config_echo={"variant": name, "block_kind": kind})
                for rec in result.history:
                    digest.update(struct.pack("<dd", rec["train_loss"], rec["val_loss"]))
                for ckpt in [*result.checkpoints, result.final]:
                    save_checkpoint(ckpt, ckpt_path)
                    digest.update(ckpt_path.read_bytes())
                load_into_model(model, result.final)
                for mode in ("fixed", "variable"):
                    for rec in score_split(model, corpus["eval"], mode, tconf.target_T):
                        digest.update(rec.id.encode() + struct.pack("<d", rec.score))
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
