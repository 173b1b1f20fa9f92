"""The four workloads, their corpus generation and the pinned input hashes.

Every recording is six synthetic speakers on the program's default f0
ladder. A recording's synth seed is derived from the workload name, the
benchmark's --seed and the recording's index, so the same --seed always
gives the same files; the test-suite seed 42 is never used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")
N_SPEAKERS = 6
TINY_SPEAKER_S = 2.0
TEST_SUITE_SEED = 42
CANARY_SEED = 20120508


@dataclass(frozen=True)
class RecordingSpec:
    rate_hz: int
    noise: float
    speaker_s: float  # seconds per speaker


@dataclass(frozen=True)
class Workload:
    method: str
    recordings: tuple[RecordingSpec, ...]


# README.md gives the reason for each workload and the layer it stresses.
WORKLOADS = {
    "pitch-long": Workload(
        "pitch",
        (RecordingSpec(8000, 0.01, 30.0),) * 3,
    ),
    "bic-grow-short": Workload(
        "bic-grow",
        (RecordingSpec(8000, 0.01, 5.0),) * 4,
    ),
    # Run by hand only; README.md says why BENCHMARK.json leaves it out.
    "pitch-16k-noisy": Workload(
        "pitch",
        tuple(RecordingSpec(16000, noise, 5.0) for noise in (0.01, 0.04, 0.08) for _ in range(3)),
    ),
    "fixed-long": Workload(
        "bic-fixed",
        tuple(RecordingSpec(rate, noise, 30.0)
              for noise in (0.01, 0.04, 0.08) for rate in (8000, 16000)),
    ),
}


@dataclass
class Recording:
    name: str
    wav: Path
    truth_path: Path
    hyp: Path
    audio_s: float
    rate_hz: int
    n_samples: int
    truth: list[float]
    sha_wav: str = ""
    sha_truth: str = ""


def recording_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    derived = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
    return derived + 1 if derived == TEST_SUITE_SEED else derived


def build_corpus(speakerseg, workload: str, seed: int, tiny: bool, out_dir: Path) -> list[Recording]:
    """Synthesize and write every recording of a workload into out_dir.

    synth_speakers is looked up on its module at call time, so a tracer
    installed on it sees these calls.
    """
    synth = speakerseg.synth
    recordings = []
    for index, spec in enumerate(WORKLOADS[workload].recordings):
        speaker_s = TINY_SPEAKER_S if tiny else spec.speaker_s
        buffer, truth = synth.synth_speakers(
            synth.SynthSpec(
                n_speakers=N_SPEAKERS,
                duration_s=speaker_s,
                noise_level=spec.noise,
                sample_rate_hz=spec.rate_hz,
                seed=recording_seed(workload, seed, index),
            )
        )
        name = f"{index}-{spec.rate_hz // 1000}k-noise{spec.noise:g}"
        rec = Recording(
            name=name,
            wav=out_dir / f"{name}.wav",
            truth_path=out_dir / f"{name}.truth.txt",
            hyp=out_dir / f"{name}.hyp.txt",
            audio_s=len(buffer.samples) / buffer.sample_rate_hz,
            rate_hz=buffer.sample_rate_hz,
            n_samples=len(buffer.samples),
            truth=[float(t) for t in truth.times],
        )
        speakerseg.audio_io.write_wav(rec.wav, buffer.samples, buffer.sample_rate_hz)
        rec.truth_path.write_text("".join(f"{t:.3f}\n" for t in rec.truth), encoding="utf-8")
        rec.sha_wav = _sha256(rec.wav)
        rec.sha_truth = _sha256(rec.truth_path)
        recordings.append(rec)
    return recordings


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_digest(recordings: list[Recording]) -> str:
    lines = "".join(f"{r.name} {r.sha_wav} {r.sha_truth}\n" for r in recordings)
    return hashlib.sha256(lines.encode()).hexdigest()


def canary_digest(speakerseg, out_dir: Path) -> str:
    """Digest of two short fixed recordings, one per sample rate.

    Pinned for every run, so a synthesizer change shows even for a
    --seed that has no pinned corpus.
    """
    synth = speakerseg.synth
    hasher = hashlib.sha256()
    for rate_hz in (8000, 16000):
        buffer, truth = synth.synth_speakers(
            synth.SynthSpec(n_speakers=3, duration_s=0.5, noise_level=0.04,
                            sample_rate_hz=rate_hz, seed=CANARY_SEED)
        )
        wav = out_dir / f"canary-{rate_hz}.wav"
        speakerseg.audio_io.write_wav(wav, buffer.samples, buffer.sample_rate_hz)
        hasher.update(wav.read_bytes())
        hasher.update("".join(f"{t:.3f}\n" for t in truth.times).encode())
    return hasher.hexdigest()


def check_pins(workload: str, seed: int, tiny: bool, digest: str, canary: str) -> str:
    """Compare the canary and a full-size corpus with their pinned digests.

    Returns a one-line status; raises ValueError when the generated
    inputs differ from the pinned ones.
    """
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    if canary != pins["canary"]:
        raise ValueError(
            f"synthesizer output changed: canary digest {canary}, pinned {pins['canary']}"
        )
    if tiny:
        return "canary matches; tiny corpus is not pinned"
    pinned = pins["workloads"][workload].get(str(seed))
    if pinned is None:
        return f"canary matches; seed {seed} has no pinned corpus"
    if pinned != digest:
        raise ValueError(
            f"inputs of {workload} seed {seed} changed: corpus digest {digest}, "
            f"pinned {pinned}; the synthesizer no longer produces this workload"
        )
    return f"canary and corpus digest {digest[:16]} match their pins"
