"""The variant-invariant analyses a PipelineCache shares between builds.

Block costs and cost vectors, liveness, loops, intervals, call graphs,
scope DAGs and trace skeletons depend on the program, and the loop and
interval summaries and basic-block sections on the program and its
typing, not on the technique, so one cache computes them once per
program (and typing) and every Table 2 variant reuses them; variants
that place the same marks share one tuned trace.  Sharing must never
change a result.
"""

import gc
import hashlib
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.annotate import annotate_program
from repro.analysis.block_typing import BlockTyping
from repro.analysis.interval_summary import summarize_intervals
from repro.analysis.loop_summary import summarize_loops
from repro.analysis.transitions import TransitionPoint, basic_block_sections
from repro.experiments.config import TABLE2_VARIANTS, ExperimentConfig
from repro.instrument import rewriter
from repro.instrument.marker import parse_strategy
from repro.instrument.phase_mark import PhaseMark
from repro.instrument.rewriter import InstrumentedProgram
from repro.program.cfg import cached_cfg
from repro.program.intervals import partition_intervals
from repro.program.loops import find_loops
from repro.sim.cost_model import CostModel
from repro.sim.flattrace import flat_trace
from repro.sim.machine import core2quad_amp
from repro.sim.process import Trace
from repro.sim.tracegen import AnalysisMemo, TraceGenerator, _SkeletonBuilder
from repro.tuning.pipeline import (
    PipelineCache,
    baseline_binary,
    instrument_cached,
    run_trace,
    tune_program,
    typed_blocks,
)
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import Workload, WorkloadRun
from tests.conftest import (
    make_corner_program,
    make_phased_program,
    make_recursive_program,
)

PROGRAMS = ("179.art", "164.gzip")

#: No SPEC benchmark recurses, so this one puts phases in a recursive
#: call cycle, whose unrolling rounds the shared scope costs must respect.
RECURSIVE = make_recursive_program()

#: Reaches what no other subject does: a second folded group with L2
#: hits in one scope, a folded mark rate at or below ``_EPS`` and one
#: mark on two loop-entry edges (see ``make_corner_program``).
CORNERS = make_corner_program()

#: The stock trace (``None``) and every Table 2 technique.
VARIANTS = (None,) + TABLE2_VARIANTS

#: ``Trace.content_digest()`` of every benchmark and variant, recorded
#: before scope costs and traces were shared: a change that shifts the
#: shared and the fresh builds alike still fails here.
PINNED_DIGESTS = {
    "179.art": {
        None: "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "BB[10,0]": "9994b541088a90e27ef871306c4f8d6d30cc27410bd1d200162966eb0bfde233",
        "BB[10,1]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,2]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,3]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[15,0]": "1c063dc7445b7dbd08513857cb111d99fd876ad4e14f31a7fde8fd8677b9debb",
        "BB[15,1]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,2]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,3]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[20,0]": "8624beac4b5012a4c780ff68aad4d442e5bc24fbdfed868fd27e066e11fd00b5",
        "BB[20,1]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,2]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,3]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "Int[30]": "99ba2d93e823142a387392944a2f1bd81df2a6bd94fd7ae64f9e6de2cd838b52",
        "Int[45]": "57319c2c06283956bae27e9e039e39b1ce5357cf1c0159f756e17e15bcb7578c",
        "Int[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "Loop[30]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[45]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
    },
    "164.gzip": {
        None: "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "BB[10,0]": "4f5ace0fe6b8194d857544c6d902916dbbb72689b8237b23f5c4d7d634afed42",
        "BB[10,1]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,2]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,3]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[15,0]": "c795be86887e03bce0fd36c366482cb319917af63a52a1a7a3f7027807680ac9",
        "BB[15,1]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,2]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,3]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[20,0]": "502decb26214e815ae81419e4b56f19846d844eae1284794441a936f07893521",
        "BB[20,1]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,2]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,3]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "Int[30]": "287e4557b8ac042308b47a39f881d0579398e96200f37710da3a98dd5fc71b8d",
        "Int[45]": "ae20ad935a0254406e3767a72f82fe9d29c22cf860d66ba25dc6ba393481188c",
        "Int[60]": "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "Loop[30]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[45]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[60]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
    },
    "recursive": {
        None: "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "BB[10,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[10,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[10,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[10,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[15,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[15,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[15,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[15,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[20,0]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[20,1]": "0ea3318a6371c6af1c452edf01bbb22f0e3341e945cc6764c45aee7691d0dbb2",
        "BB[20,2]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "BB[20,3]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Int[30]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Int[45]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Int[60]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Loop[30]": "8e8c6bc517b06914beb99caf5f0ee8f02274025063ab69722ce151b217e0c0b3",
        "Loop[45]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
        "Loop[60]": "6079d5bad94288268c76f5f394d21533ed93b01c7343f3e7a9c2f49d7a59e739",
    },
    # Recorded with the fix that resets the L2 hits of each flushed
    # group; before it, the second group also carried the first's.
    "corners": {
        None: "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[10,0]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[10,1]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[10,2]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[10,3]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[15,0]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[15,1]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[15,2]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[15,3]": "94a9cd83c2ec8096998a98d618d3c205aa2d5c8d28bcb2bc9b96602ad98106fe",
        "BB[20,0]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[20,1]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[20,2]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "BB[20,3]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "Int[30]": "fc78f6a00bab61b09c15868e882d259f85195f5e973885c8ed815373f04ce0ee",
        "Int[45]": "fc78f6a00bab61b09c15868e882d259f85195f5e973885c8ed815373f04ce0ee",
        "Int[60]": "fc78f6a00bab61b09c15868e882d259f85195f5e973885c8ed815373f04ce0ee",
        "Loop[30]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "Loop[45]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
        "Loop[60]": "14323b828be8f5d5eac3c61261ea80bf3c6424b1fcac93a9fe2333914f595fd8",
    },
}


#: ``Trace.content_digest()`` of the stock trace (``None``) and every
#: Table 2 variant of each of the 15 benchmarks a seed-1
#: ``fairness-paper`` workload draws, each under its own spec on the
#: Core 2 Quad AMP as ``WorkloadRun`` builds them, recorded before
#: traces were laid onto shared skeletons.
FAIRNESS_DIGESTS = {
    "164.gzip": {
        None: "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "BB[10,0]": "4f5ace0fe6b8194d857544c6d902916dbbb72689b8237b23f5c4d7d634afed42",
        "BB[10,1]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,2]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[10,3]": "695b190029853d31b2ed7af8d9fee0526e96e238c8cf7dd865d54b472f1a3c97",
        "BB[15,0]": "c795be86887e03bce0fd36c366482cb319917af63a52a1a7a3f7027807680ac9",
        "BB[15,1]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,2]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[15,3]": "1f79a96a9fc6fc6ba6d5a4e18cc4a5081e75cc4a5ddb6df85753d7fda8fdf746",
        "BB[20,0]": "502decb26214e815ae81419e4b56f19846d844eae1284794441a936f07893521",
        "BB[20,1]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,2]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "BB[20,3]": "245149eb249bb7687c3889283ab324f610c339a3eeb502e1f9f3ff48c4357ccb",
        "Int[30]": "287e4557b8ac042308b47a39f881d0579398e96200f37710da3a98dd5fc71b8d",
        "Int[45]": "ae20ad935a0254406e3767a72f82fe9d29c22cf860d66ba25dc6ba393481188c",
        "Int[60]": "dae9a0327586967ce538498a37c5ec1f9117a928c7cda675566da70882306cbd",
        "Loop[30]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[45]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
        "Loop[60]": "8d494721c803742824b2080d2806218af6c01678567dc4fbe4a270cfff068297",
    },
    "171.swim": {
        None: "50f5cbcc4632caf3fd504ef8f6e585642e24f4a02324f0d5d04443652a766038",
        "BB[10,0]": "3e837b4946bc50909f823d3ada49302e7cef6ffe7a079d67cf7aa6dd93dbb58b",
        "BB[10,1]": "3e9028b449ad1569fcdf31ad19ce822b56339e1f259c828d97a82499867c36e4",
        "BB[10,2]": "cef9185e08d980fd93680599fd5a4e37873dd39cbdeb33ad1bb54353915d480e",
        "BB[10,3]": "cef9185e08d980fd93680599fd5a4e37873dd39cbdeb33ad1bb54353915d480e",
        "BB[15,0]": "1931f552a7a79fee3134774bdcf7905aa298ede6736c60f27c647eefd3f79143",
        "BB[15,1]": "81a0ca5344d548ea2cda98326d123d6d58b65ce78df2e49853ce7d38b3eaefbf",
        "BB[15,2]": "81a0ca5344d548ea2cda98326d123d6d58b65ce78df2e49853ce7d38b3eaefbf",
        "BB[15,3]": "81a0ca5344d548ea2cda98326d123d6d58b65ce78df2e49853ce7d38b3eaefbf",
        "BB[20,0]": "8351957e56bd30474e8470f084c1bb54260f27e7bebe5f058fff59d8bf550831",
        "BB[20,1]": "f083a1b3b47fd293abe1444bc3a183af679fa0b252aee9d8011c271b1c6aa160",
        "BB[20,2]": "f083a1b3b47fd293abe1444bc3a183af679fa0b252aee9d8011c271b1c6aa160",
        "BB[20,3]": "f083a1b3b47fd293abe1444bc3a183af679fa0b252aee9d8011c271b1c6aa160",
        "Int[30]": "a0c56380237a0ac40674b733343c4bc174fd32b1203b487f36d4b706be26b4ff",
        "Int[45]": "f556efc61e46b612b2b424672eb4da06d7a7d48c7210455b0f99d03087349864",
        "Int[60]": "4400835445d91d5820217d590ee91c42a58b0d4ea6f3149396e78c885722dda0",
        "Loop[30]": "99f65f8d7e4a9bdb8001979db0e5c1ef9bec225f6ed4d5491d388d47efc314da",
        "Loop[45]": "99f65f8d7e4a9bdb8001979db0e5c1ef9bec225f6ed4d5491d388d47efc314da",
        "Loop[60]": "50f5cbcc4632caf3fd504ef8f6e585642e24f4a02324f0d5d04443652a766038",
    },
    "172.mgrid": {
        None: "aeb11f8c7e5f228aa52c2db65c13a23dfa4b592fc44b0acabde3576786eb290a",
        "BB[10,0]": "88ac97986b0e2cab8bd136ec03e13d3e4668d716c22f42a3ec62fce0bb714ac3",
        "BB[10,1]": "237bc8622721ff64c0ea40cf74d09e9bc3095ea9f98bc29454ea90099504db21",
        "BB[10,2]": "1a6eb9a6351cbbdfbe2f6a4fead7aec2414d99c84afe779d55e6822ee6edb829",
        "BB[10,3]": "1a6eb9a6351cbbdfbe2f6a4fead7aec2414d99c84afe779d55e6822ee6edb829",
        "BB[15,0]": "70c06b9009b12ba8ecdaa5b299de3da14f1909f9b257bce51efd219a5763530f",
        "BB[15,1]": "7b5af1577e3d5b4c9a21e4980ff3a08a2f4d7556b2f63146046028cccf9a2b25",
        "BB[15,2]": "7b5af1577e3d5b4c9a21e4980ff3a08a2f4d7556b2f63146046028cccf9a2b25",
        "BB[15,3]": "7b5af1577e3d5b4c9a21e4980ff3a08a2f4d7556b2f63146046028cccf9a2b25",
        "BB[20,0]": "772055cd5984d9a2d3cf2150b4ff312e648fff3026606f196a2300fc020f24e0",
        "BB[20,1]": "8e7ac21b98bbb10d41962739cb70d7bbf21ac927f31ce3f391dbf8cae0e7384c",
        "BB[20,2]": "8e7ac21b98bbb10d41962739cb70d7bbf21ac927f31ce3f391dbf8cae0e7384c",
        "BB[20,3]": "8e7ac21b98bbb10d41962739cb70d7bbf21ac927f31ce3f391dbf8cae0e7384c",
        "Int[30]": "d62ac1c2252838c5bed57af0b0c9a65d38c94c06c25890e09a769aafb5d22023",
        "Int[45]": "cbff4afb813345e89b0ab957af014ab190ef85519fc5db03c4ecfda8f8668487",
        "Int[60]": "aeb11f8c7e5f228aa52c2db65c13a23dfa4b592fc44b0acabde3576786eb290a",
        "Loop[30]": "4414abcbde17ec9f4efdd94c4c5e0c42dc7943890c4474e3e8145dd136956bd5",
        "Loop[45]": "4414abcbde17ec9f4efdd94c4c5e0c42dc7943890c4474e3e8145dd136956bd5",
        "Loop[60]": "aeb11f8c7e5f228aa52c2db65c13a23dfa4b592fc44b0acabde3576786eb290a",
    },
    "173.applu": {
        None: "8045822f7117ca674a368f606c1818412e2f1047cb8b52f797dcfdeb7f99eb02",
        "BB[10,0]": "22177195bc53ec25252434681a9d0cddbef4de01c8d06d0f99cb4b00cb220f14",
        "BB[10,1]": "9c8d2acf555ec12cdab40403e25c7424dcec1441be2df99963ab5169ec958b68",
        "BB[10,2]": "ddf245020c8e25ef259586bb414532a43d6b15eedb626932d68dbb07ba845841",
        "BB[10,3]": "ddf245020c8e25ef259586bb414532a43d6b15eedb626932d68dbb07ba845841",
        "BB[15,0]": "487e8c76cf5fc15c0e76ea3f77b0a646431d5d3ac2295d3e0a62d84e96b643dd",
        "BB[15,1]": "b1d4fb4550d5d5b3d4ace34498931aa5894228be4a40ca5005f419fe499f60af",
        "BB[15,2]": "daea858c455b06b357ff07a7580989649a6affffe5afb9dc13131ab9408f3164",
        "BB[15,3]": "daea858c455b06b357ff07a7580989649a6affffe5afb9dc13131ab9408f3164",
        "BB[20,0]": "91f34068000922aa87e275d31c549c0f444980c8346ad603a3108dc33a1ed925",
        "BB[20,1]": "ded72d234e76effa32e05f279bc0296e35a2d9c6ce516e4bd42410d457c60fe7",
        "BB[20,2]": "bc9ef6156e065bb2bcdea8e2fc9fb277d1d788f7ac7fb647f5f657c71091174a",
        "BB[20,3]": "bc9ef6156e065bb2bcdea8e2fc9fb277d1d788f7ac7fb647f5f657c71091174a",
        "Int[30]": "019e2dd7a54805b84435043ccdb64941fb3c1f91446470749fdc51dae6479c82",
        "Int[45]": "2250e8a42d1ed003cd30ba4092a1b0617416e44694cc8d2f7f89c0847df7a8f4",
        "Int[60]": "8045822f7117ca674a368f606c1818412e2f1047cb8b52f797dcfdeb7f99eb02",
        "Loop[30]": "e773c12b280869781e62f3f69d383d9f440da905d53a9744b81c57718ecedf87",
        "Loop[45]": "e773c12b280869781e62f3f69d383d9f440da905d53a9744b81c57718ecedf87",
        "Loop[60]": "8045822f7117ca674a368f606c1818412e2f1047cb8b52f797dcfdeb7f99eb02",
    },
    "175.vpr": {
        None: "4ff33cdc49090567a004ec5da202a2e17ce44f00dc6ef3b235728fa22bcb854c",
        "BB[10,0]": "2d1eb8fb3f426fe56e2a010debd912995ab03fd5ea77390ae08432d0b5a5fce0",
        "BB[10,1]": "bd1760a7ae4bdaf7e058fd14bbcb44145323cfeaf12c1fcbead929a5e9a562ea",
        "BB[10,2]": "bd1760a7ae4bdaf7e058fd14bbcb44145323cfeaf12c1fcbead929a5e9a562ea",
        "BB[10,3]": "bd1760a7ae4bdaf7e058fd14bbcb44145323cfeaf12c1fcbead929a5e9a562ea",
        "BB[15,0]": "880f64a0205d239e9553afc6847b6bbb9c8fb97c5ae6b9213c562f535732d0a0",
        "BB[15,1]": "13981147894556969cc62c8bcc44809c56382896df8e4ff6033672b5d42db912",
        "BB[15,2]": "13981147894556969cc62c8bcc44809c56382896df8e4ff6033672b5d42db912",
        "BB[15,3]": "13981147894556969cc62c8bcc44809c56382896df8e4ff6033672b5d42db912",
        "BB[20,0]": "c54cef56232353159bb94e6cac3a7eb46ab39c3aa257855ac376006a2dcd33b8",
        "BB[20,1]": "461fe33fbdbacc00db9f0db056b1c235973ab417f55e331adc289a9f99744c53",
        "BB[20,2]": "461fe33fbdbacc00db9f0db056b1c235973ab417f55e331adc289a9f99744c53",
        "BB[20,3]": "461fe33fbdbacc00db9f0db056b1c235973ab417f55e331adc289a9f99744c53",
        "Int[30]": "47776ea09b70cb652bbad4f641c7f82b0a0e88db99a01e868d9a7b5e911a29d3",
        "Int[45]": "97d5770ccc120d3cd5696bbf19fe3a02a70d29f2a7aaaca36876dc0bd0b1a9c2",
        "Int[60]": "4ff33cdc49090567a004ec5da202a2e17ce44f00dc6ef3b235728fa22bcb854c",
        "Loop[30]": "411f9418209b15b5357015f9308153f5d3fdabd914db98fa6e25fa05d4cc0a0b",
        "Loop[45]": "411f9418209b15b5357015f9308153f5d3fdabd914db98fa6e25fa05d4cc0a0b",
        "Loop[60]": "411f9418209b15b5357015f9308153f5d3fdabd914db98fa6e25fa05d4cc0a0b",
    },
    "179.art": {
        None: "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "BB[10,0]": "9994b541088a90e27ef871306c4f8d6d30cc27410bd1d200162966eb0bfde233",
        "BB[10,1]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,2]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[10,3]": "18de87f125bbcfe6c3dd93ba8b8ffa2ccb10385a81fc5650e9d7f2cc299e7d93",
        "BB[15,0]": "1c063dc7445b7dbd08513857cb111d99fd876ad4e14f31a7fde8fd8677b9debb",
        "BB[15,1]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,2]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[15,3]": "c815165588ee0d5e0232b122ddd744119412c2e1d6e7c3d6aa121056ec9fb883",
        "BB[20,0]": "8624beac4b5012a4c780ff68aad4d442e5bc24fbdfed868fd27e066e11fd00b5",
        "BB[20,1]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,2]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "BB[20,3]": "c719ad92aefca1ced924e55db15f1b22150074e2a0835d8a7e9856bdc32e4af3",
        "Int[30]": "99ba2d93e823142a387392944a2f1bd81df2a6bd94fd7ae64f9e6de2cd838b52",
        "Int[45]": "57319c2c06283956bae27e9e039e39b1ce5357cf1c0159f756e17e15bcb7578c",
        "Int[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
        "Loop[30]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[45]": "03ac4772ab29a0fb4011f2442563e51066fa4a1912308a767c441a904280b1eb",
        "Loop[60]": "cb5adec358b27eb1d33096a580b3bd6b41b74116b56aa492f5ec020ffd3a9c83",
    },
    "181.mcf": {
        None: "2b133c3ff9b9eb59fba43fe1bd32ce1b1a25cfeeb92bfa57bbba72a9a3fe124a",
        "BB[10,0]": "9ff24f7bc8c78125fe3d3e2d69435b12cea946fa6b7a8e9858daad273cc3e427",
        "BB[10,1]": "50838c076a194fd98aff887f1c51b1e5bfb5ceaa10fcc79f61e33f58e7825284",
        "BB[10,2]": "aaa787317e6da310af10c4d12d52dcbfc68338ae342150505181ab09a351ddff",
        "BB[10,3]": "aaa787317e6da310af10c4d12d52dcbfc68338ae342150505181ab09a351ddff",
        "BB[15,0]": "9244e03ba53291291e280a22f752063c397dc0e881ea9c80db144c938a595539",
        "BB[15,1]": "c20e67a25b8f1bc5ddca7de446687754ba6dec8dccb0a7d3b591a3b1c57582c1",
        "BB[15,2]": "c20e67a25b8f1bc5ddca7de446687754ba6dec8dccb0a7d3b591a3b1c57582c1",
        "BB[15,3]": "c20e67a25b8f1bc5ddca7de446687754ba6dec8dccb0a7d3b591a3b1c57582c1",
        "BB[20,0]": "b90e47e5280c13aefffb51885cf2b04b800c8826501bb7ff9476c86d2796769e",
        "BB[20,1]": "a765d053e8f822f259847740febf21ae4b810f2545c748824831dc79aeae442e",
        "BB[20,2]": "a765d053e8f822f259847740febf21ae4b810f2545c748824831dc79aeae442e",
        "BB[20,3]": "a765d053e8f822f259847740febf21ae4b810f2545c748824831dc79aeae442e",
        "Int[30]": "9f082fe7b0c29e83ca1aa1ecbf714e549293f74645261d9b2b4a10ace9f449ae",
        "Int[45]": "a64e02b927e3e2bec977ff12e7c42dc1aee3942fef94ca3342571531b2f4f952",
        "Int[60]": "2b133c3ff9b9eb59fba43fe1bd32ce1b1a25cfeeb92bfa57bbba72a9a3fe124a",
        "Loop[30]": "1d042e4565db8e97c882b7439bcf5769a69f456c71d0a83875b40b64453784bc",
        "Loop[45]": "1d042e4565db8e97c882b7439bcf5769a69f456c71d0a83875b40b64453784bc",
        "Loop[60]": "2b133c3ff9b9eb59fba43fe1bd32ce1b1a25cfeeb92bfa57bbba72a9a3fe124a",
    },
    "183.equake": {
        None: "65dbfc0159327d17be990f1efd378d93801189b69067122b1b093fd4198304b2",
        "BB[10,0]": "cbc58873bc35eff850824fac0634ec32405ae4daf282958f479be9fa89e8f3c6",
        "BB[10,1]": "e5acf78f6645f2617a567ef09de7f2ba7a6bed6063093f70798e7a6fb4a3a6ff",
        "BB[10,2]": "c3ba1a06f2eb7d8c2408477f2fc44f77deedf06bd3317b540101ee1f5455844e",
        "BB[10,3]": "c3ba1a06f2eb7d8c2408477f2fc44f77deedf06bd3317b540101ee1f5455844e",
        "BB[15,0]": "3470b4337b35747f874b5fa245ea7d88ebb24956f0b1f84bbba75f1fa2145bb7",
        "BB[15,1]": "fd93c67127554dce45a415ff668b4b3402ee369c42304fd756206c229c2a46c8",
        "BB[15,2]": "fd93c67127554dce45a415ff668b4b3402ee369c42304fd756206c229c2a46c8",
        "BB[15,3]": "fd93c67127554dce45a415ff668b4b3402ee369c42304fd756206c229c2a46c8",
        "BB[20,0]": "3fc9eccfa1f74964c7a3cb3560c1217ca9698dfb4608ab73db5225c2b201d823",
        "BB[20,1]": "36820596d535b128b631ed209c7c00bf72e3df6fcc3da07e5b71237503e67e7b",
        "BB[20,2]": "36820596d535b128b631ed209c7c00bf72e3df6fcc3da07e5b71237503e67e7b",
        "BB[20,3]": "36820596d535b128b631ed209c7c00bf72e3df6fcc3da07e5b71237503e67e7b",
        "Int[30]": "a88e27bd4e9c8d9e0ca6b79a7d28eaa6b1477ab0ae55374ff975b062dfa2f4ed",
        "Int[45]": "5bcc9c5a6ffc46cf6b20bb3dd66c24040e2e16d83cfb1a65b64d8094f20f059b",
        "Int[60]": "65dbfc0159327d17be990f1efd378d93801189b69067122b1b093fd4198304b2",
        "Loop[30]": "43136920e2ff5d68279025e025677c2719a50d852eb4ff9c9bd441be72e3ed16",
        "Loop[45]": "43136920e2ff5d68279025e025677c2719a50d852eb4ff9c9bd441be72e3ed16",
        "Loop[60]": "65dbfc0159327d17be990f1efd378d93801189b69067122b1b093fd4198304b2",
    },
    "188.ammp": {
        None: "72fb6917f34a056df79234b6637703ff7aeef5668d82b36f6e71fe1317facf0d",
        "BB[10,0]": "a10ecf36605040a20040e077d00a5b8d65326522ea2db0c28bd034fd7fa25030",
        "BB[10,1]": "6a9708fcc58cba943d6f8290340473886887767b111822deaf83dc4613613c7d",
        "BB[10,2]": "023081036b94a836f4de36b49519b6c3702bd4e26e41bbabf4b1793df71f7740",
        "BB[10,3]": "023081036b94a836f4de36b49519b6c3702bd4e26e41bbabf4b1793df71f7740",
        "BB[15,0]": "eba6b9eb61cb7b8ecc02eda0b291637e98705756c029cf9732640f3fc9ab9493",
        "BB[15,1]": "72278f8f52e56bcddaf307f4a8f8bf3918ca80bba8e259c790287aa116ead249",
        "BB[15,2]": "eba6b9eb61cb7b8ecc02eda0b291637e98705756c029cf9732640f3fc9ab9493",
        "BB[15,3]": "eba6b9eb61cb7b8ecc02eda0b291637e98705756c029cf9732640f3fc9ab9493",
        "BB[20,0]": "9c8baeb421a5bbc5a2da40756eb907b2bdb6a6da3983bb26ca243818d36d30f5",
        "BB[20,1]": "9943339c1c20a5960c720bc0208cf51dd4d23cc610ed7400f3c82175b581b91b",
        "BB[20,2]": "9c8baeb421a5bbc5a2da40756eb907b2bdb6a6da3983bb26ca243818d36d30f5",
        "BB[20,3]": "9c8baeb421a5bbc5a2da40756eb907b2bdb6a6da3983bb26ca243818d36d30f5",
        "Int[30]": "f51e4db1c9662c103599ae24053c84a1b3e16410624d7aa212a25ffd95d4e4e4",
        "Int[45]": "bdf6bdb623fa2b66248f05878b2dad384066fc5667f74a60d599fbf059450c42",
        "Int[60]": "72fb6917f34a056df79234b6637703ff7aeef5668d82b36f6e71fe1317facf0d",
        "Loop[30]": "a95bed6293ebd60a74dab793e23d5a1298656ec3e8b6750c9de400df18ccc64a",
        "Loop[45]": "a95bed6293ebd60a74dab793e23d5a1298656ec3e8b6750c9de400df18ccc64a",
        "Loop[60]": "72fb6917f34a056df79234b6637703ff7aeef5668d82b36f6e71fe1317facf0d",
    },
    "401.bzip2": {
        None: "4a9a01577f6e3fc4c7f60e24ceb64b38c53f12120e3ca52d2130016de9e33428",
        "BB[10,0]": "f6eaf4bcd70693699c2cf7cdaaddeb38f6ed330c99bcd84db05fa9a4135d204f",
        "BB[10,1]": "821892b8620849966d5ba82c08464552eef427700da9b85e8004087b96c4746b",
        "BB[10,2]": "d8794fb3699e0e780a018f2be408aa33347c0f6c46024a8ac896403e8edb2691",
        "BB[10,3]": "d8794fb3699e0e780a018f2be408aa33347c0f6c46024a8ac896403e8edb2691",
        "BB[15,0]": "1d0f10e0ca375e19a1e20a9b1c13eabff6f476bd77f825214caa2d949a58e0fe",
        "BB[15,1]": "587413488c09c7ac08306f9aa0995dddd9b8e5baa45924c1b10debcb8c52334c",
        "BB[15,2]": "587413488c09c7ac08306f9aa0995dddd9b8e5baa45924c1b10debcb8c52334c",
        "BB[15,3]": "587413488c09c7ac08306f9aa0995dddd9b8e5baa45924c1b10debcb8c52334c",
        "BB[20,0]": "f99bc53ce743e79dcdbbd18c40474fb70ff234958801f8fbb8b0b7afabcbef87",
        "BB[20,1]": "97ad5dce959dd71935a34a5ac41c2a252dd1fa1e82d53f805c6195622f8dc639",
        "BB[20,2]": "97ad5dce959dd71935a34a5ac41c2a252dd1fa1e82d53f805c6195622f8dc639",
        "BB[20,3]": "97ad5dce959dd71935a34a5ac41c2a252dd1fa1e82d53f805c6195622f8dc639",
        "Int[30]": "7217db9aa9cc6c19ce8b26eae9b952fc0c37164be112011f9bc7f8c12d17753a",
        "Int[45]": "ee339647a6de8a98d8bb28bc1dbf128b98a022c4205128ab6bf09a29780e8a6a",
        "Int[60]": "baa6573bc186daa567e231e590190c733e7b4ff1a631f36ea83c39049f061dc0",
        "Loop[30]": "5477239ef88d771076cc095fdff9395a3c95d61218a34a8a1895c79f77aa989c",
        "Loop[45]": "5477239ef88d771076cc095fdff9395a3c95d61218a34a8a1895c79f77aa989c",
        "Loop[60]": "4a9a01577f6e3fc4c7f60e24ceb64b38c53f12120e3ca52d2130016de9e33428",
    },
    "410.bwaves": {
        None: "c75bd4ce8b8fa919ab28721610dabbb81df295e9e4a4c074d316f94ed76e8977",
        "BB[10,0]": "5d7903b8b7c4094563707d7d88e7c6259771688e227fd6161e1fcece129eb291",
        "BB[10,1]": "09cc75dd37f9292a4045a2cc5376c5e6b9824da1132e1ee5107555e89a461adc",
        "BB[10,2]": "08f477471732c216226ecb35b34da6d447c7bd6de7473f76d92ab6d62f56f662",
        "BB[10,3]": "08f477471732c216226ecb35b34da6d447c7bd6de7473f76d92ab6d62f56f662",
        "BB[15,0]": "fb889708fa7800fddf9ac972b1b91fa37d2ff41325cc7bda25f0ba020509e1db",
        "BB[15,1]": "d3abe20f9145c57aa568b86a7276c60d931ae21b3cbd11dc7fbf5100633d981e",
        "BB[15,2]": "e996a8b5ab85efa62f666cc598a7a4227b4997a3d2400fcfbdc37c55a12529f8",
        "BB[15,3]": "e996a8b5ab85efa62f666cc598a7a4227b4997a3d2400fcfbdc37c55a12529f8",
        "BB[20,0]": "b733041c4cb78c6a20fd0437c2b05e2528f5873d78c4c67b7f601dea0039895b",
        "BB[20,1]": "4711df42f77d85db70eec50df344c6945602fadd960b730c7c6c8931c98bc6f0",
        "BB[20,2]": "ed1cefc26d45b6035eb817446eb79ba1699b12db97dda4d5a3350880faaa4d0e",
        "BB[20,3]": "ed1cefc26d45b6035eb817446eb79ba1699b12db97dda4d5a3350880faaa4d0e",
        "Int[30]": "8a03d05117a9991a91af9a082d418ca8c34b1d3a806730d2ca258b5a10bbc2fa",
        "Int[45]": "3e77714d3ec1255f232e73f72f42a0ac2caf9e346b4462a5e4fd9ea439ebc84c",
        "Int[60]": "c75bd4ce8b8fa919ab28721610dabbb81df295e9e4a4c074d316f94ed76e8977",
        "Loop[30]": "dc0359bfefbe96a6e92479ce7fc100a71a37a8e30ac189ba0414ee5df8a8fd80",
        "Loop[45]": "dc0359bfefbe96a6e92479ce7fc100a71a37a8e30ac189ba0414ee5df8a8fd80",
        "Loop[60]": "c75bd4ce8b8fa919ab28721610dabbb81df295e9e4a4c074d316f94ed76e8977",
    },
    "429.mcf": {
        None: "e76fd61bcea554cce46bee5e2f3691073510d76eb3571fbc1fe732245a2c65d7",
        "BB[10,0]": "1e98d9b38aac74775750cf9401350f557e087081408e0af7d6b4ab6fa3a84b9f",
        "BB[10,1]": "da973607c760acdbcf70a21d44d1592a251c77c92b5cd90cc4eaaa157d73e22f",
        "BB[10,2]": "f7ea3438e554cb7349f4c1ce88f1adbcb36b6ebdcc59eec64653035ab1393c8a",
        "BB[10,3]": "f7ea3438e554cb7349f4c1ce88f1adbcb36b6ebdcc59eec64653035ab1393c8a",
        "BB[15,0]": "962a48873404e2134fc53de732d683e55219a0b5daee3602d998294f9e1b58a9",
        "BB[15,1]": "1f27009469291b1842dfd8b22a1638e788232d8dbc0d55d0ba031443ea16a6c0",
        "BB[15,2]": "1f27009469291b1842dfd8b22a1638e788232d8dbc0d55d0ba031443ea16a6c0",
        "BB[15,3]": "1f27009469291b1842dfd8b22a1638e788232d8dbc0d55d0ba031443ea16a6c0",
        "BB[20,0]": "338a29e9d4cbf4c664ae79145c43db7f6a1061f653f781b77dd018b786fd77a5",
        "BB[20,1]": "e32891f07b1b25cbbd00cd2898e9eec64822603e0f8a365be379154d68676041",
        "BB[20,2]": "e32891f07b1b25cbbd00cd2898e9eec64822603e0f8a365be379154d68676041",
        "BB[20,3]": "e32891f07b1b25cbbd00cd2898e9eec64822603e0f8a365be379154d68676041",
        "Int[30]": "38b31bbe27d880d72c9eb1ae3b98a49832757982e06c11b2cb82797e5ba30dc5",
        "Int[45]": "3d9a79db2bcbea39cbaf1e5ac1ef8ff85df7906505b299a3926f7970f5453e7a",
        "Int[60]": "ce47b3fbbe6d633969bf1dca38a392a78f6d5b684f4744279b56071f7884c507",
        "Loop[30]": "0c6051363d220c9e9ffb1a9d2350d468e7b1586a99d6da2f48503ba5b24c72f2",
        "Loop[45]": "0c6051363d220c9e9ffb1a9d2350d468e7b1586a99d6da2f48503ba5b24c72f2",
        "Loop[60]": "e76fd61bcea554cce46bee5e2f3691073510d76eb3571fbc1fe732245a2c65d7",
    },
    "459.GemsFDTD": {
        None: "a5c9c86d9b0d6451637a714af8b00999323388a48fb9983cd77a817b0c20ceac",
        "BB[10,0]": "b9109031a6447f000b55f3b39d764745facc6620000b96831374df0dd2569294",
        "BB[10,1]": "14b3f3d5fa92c01d6cc995ede9386b6621ecec47f9fcb8ce9db928cc2d62211b",
        "BB[10,2]": "0b209b89214c3aa97af8662a13323f04f8d3aa895dd32f111cc7337d4b696ed9",
        "BB[10,3]": "0b209b89214c3aa97af8662a13323f04f8d3aa895dd32f111cc7337d4b696ed9",
        "BB[15,0]": "129694ad3629436a5ebcce25607ca632bc916f7bf2c4bb0220ebc91b4310f60f",
        "BB[15,1]": "02fe3ee2a42532702eca8793f45cf6d7b4eae430f7d1ca4a049112fbd69d275a",
        "BB[15,2]": "02fe3ee2a42532702eca8793f45cf6d7b4eae430f7d1ca4a049112fbd69d275a",
        "BB[15,3]": "02fe3ee2a42532702eca8793f45cf6d7b4eae430f7d1ca4a049112fbd69d275a",
        "BB[20,0]": "4951097bdcb125ae679bdbf755ba78cc9eb7a5ca5c361f7f3ded4271585f5e81",
        "BB[20,1]": "781f6ebf513b939ac69658afcaed506473439d6f188f5b2010411859f5657a77",
        "BB[20,2]": "781f6ebf513b939ac69658afcaed506473439d6f188f5b2010411859f5657a77",
        "BB[20,3]": "781f6ebf513b939ac69658afcaed506473439d6f188f5b2010411859f5657a77",
        "Int[30]": "ce25642460d3f6acbc5f8da1e5b8b9c16c03d0808c6c12ab394905b9d46a163f",
        "Int[45]": "8011060887986f8b3d8847ac8be8e458aa901c1c5e1dab888df0e1e0cccc916f",
        "Int[60]": "ff4613e39baedcb2b36db9bff648f902718417625621d6ca1394c83c776216cb",
        "Loop[30]": "f3f9eaf01e4c97681b3379077af1a6808f94bbd4870ac939e82eb221f0f6e82e",
        "Loop[45]": "f3f9eaf01e4c97681b3379077af1a6808f94bbd4870ac939e82eb221f0f6e82e",
        "Loop[60]": "a5c9c86d9b0d6451637a714af8b00999323388a48fb9983cd77a817b0c20ceac",
    },
    "470.lbm": {
        None: "96af7050718e4bcd40b6d59a14480aed4b83079c5322ae745cabd4c66c0c6035",
        "BB[10,0]": "dfc71667b59af4a8b669814dc8f4f4582f37c42f061dd9cf5b4b53c582ae003d",
        "BB[10,1]": "b77cf6f1c94a69fb9d54a3b9d1f2edcfb7d6eef986018406f84ce3dff4b175bd",
        "BB[10,2]": "ae93b3bacd52b46e7c6e4420a6f69fbdbb2c6cf026161749fe757bab1e87e097",
        "BB[10,3]": "ae93b3bacd52b46e7c6e4420a6f69fbdbb2c6cf026161749fe757bab1e87e097",
        "BB[15,0]": "0e6ee15e6723689d19d9b12bf13970986f3198b668e408cfa9a5f6d702bb7188",
        "BB[15,1]": "dfe1ef81a99cd333c96de3d258b709c92b0f191d1e0609d48901ec33a11285a3",
        "BB[15,2]": "df80cb512f56a0bd60bbcbce89f87b2759d5dbacccbf5eccd91c658db235f736",
        "BB[15,3]": "df80cb512f56a0bd60bbcbce89f87b2759d5dbacccbf5eccd91c658db235f736",
        "BB[20,0]": "d775a2dcfcc1aaa5ad25c3d343a52e4133868711e726df3f841b86722b6e134e",
        "BB[20,1]": "06856ff1b42ef8db535c7f38c427b22cc16d5dae3bacc56bb673b315128c3538",
        "BB[20,2]": "314b7ed1f2eaa9ff204f149d1a70cff36bf9440ca3369b46a4c805b80a27e688",
        "BB[20,3]": "314b7ed1f2eaa9ff204f149d1a70cff36bf9440ca3369b46a4c805b80a27e688",
        "Int[30]": "458dc7a4467f1ae1d87a87834613a19143c12a93653873e3de21018720fcf4f7",
        "Int[45]": "922270827dfab1843b14ffeef9c4eb7b7026d6219f5876b4b5946db5d3e41b6c",
        "Int[60]": "8b59de39c47148fbf2ba8fa2a9b5ee500497921b199f4ff9e58f23d42649903b",
        "Loop[30]": "6cf764112daa8f9eb8972d97bebab59f5c2c81db379ef9dd8b1c006fec0a3637",
        "Loop[45]": "6cf764112daa8f9eb8972d97bebab59f5c2c81db379ef9dd8b1c006fec0a3637",
        "Loop[60]": "96af7050718e4bcd40b6d59a14480aed4b83079c5322ae745cabd4c66c0c6035",
    },
    "473.astar": {
        None: "170b70169ce00a9e07425dd47b7886c1590a8f5c7798c8db67dab6c6ff511a77",
        "BB[10,0]": "527015e916af5d183cfbcd0a70709b0b64defb348e48d72f2bd9c072dff88374",
        "BB[10,1]": "527015e916af5d183cfbcd0a70709b0b64defb348e48d72f2bd9c072dff88374",
        "BB[10,2]": "527015e916af5d183cfbcd0a70709b0b64defb348e48d72f2bd9c072dff88374",
        "BB[10,3]": "527015e916af5d183cfbcd0a70709b0b64defb348e48d72f2bd9c072dff88374",
        "BB[15,0]": "c4c478098ebd52e8e74a9a873fdbc7c6775992bc1c4bb69d1cb70c6fbdfa098b",
        "BB[15,1]": "c4c478098ebd52e8e74a9a873fdbc7c6775992bc1c4bb69d1cb70c6fbdfa098b",
        "BB[15,2]": "c4c478098ebd52e8e74a9a873fdbc7c6775992bc1c4bb69d1cb70c6fbdfa098b",
        "BB[15,3]": "c4c478098ebd52e8e74a9a873fdbc7c6775992bc1c4bb69d1cb70c6fbdfa098b",
        "BB[20,0]": "2c7ae380182477ae29be052d230061801b78c312519fe2d59181e397c35931a1",
        "BB[20,1]": "2c7ae380182477ae29be052d230061801b78c312519fe2d59181e397c35931a1",
        "BB[20,2]": "2c7ae380182477ae29be052d230061801b78c312519fe2d59181e397c35931a1",
        "BB[20,3]": "2c7ae380182477ae29be052d230061801b78c312519fe2d59181e397c35931a1",
        "Int[30]": "527015e916af5d183cfbcd0a70709b0b64defb348e48d72f2bd9c072dff88374",
        "Int[45]": "e91b84b3ab7e39c8df89febbf0959c9c8902d32df4debd8ed62e9a6f485d901f",
        "Int[60]": "170b70169ce00a9e07425dd47b7886c1590a8f5c7798c8db67dab6c6ff511a77",
        "Loop[30]": "170b70169ce00a9e07425dd47b7886c1590a8f5c7798c8db67dab6c6ff511a77",
        "Loop[45]": "170b70169ce00a9e07425dd47b7886c1590a8f5c7798c8db67dab6c6ff511a77",
        "Loop[60]": "170b70169ce00a9e07425dd47b7886c1590a8f5c7798c8db67dab6c6ff511a77",
    },
}



#: sha256 over the comma-joined ``Trace.content_digest()`` of the stock
#: trace and every Table 2 variant (``VARIANTS`` order) of each subject
#: under two specs that change what trace structure emits: a segment
#: budget of 1 collapses every loop, nested ones included, and an
#: inline depth of 0 folds every call.  Mark rates of nested loops and
#: of loop-bearing callees reach the trace only in such shapes.
#: Recorded before traces were laid onto shared skeletons.
RESHAPED_DIGESTS = {
    ("179.art", "collapsed"): "4618376317ed6149ccad6796ad863420c0a5852328b18cafcda0a17c49d05b35",
    ("179.art", "folded"): "8fbafe5a5b9b250cea29c9b2b8f97d7f49dd731e79ec64854abc1e043b26bbe4",
    ("164.gzip", "collapsed"): "c6651f9e4dd71cf696b9d32f9f0ed8e35b49fecbe18d754ca47ffeeaef58e96b",
    ("164.gzip", "folded"): "b2943d29c01d2733261dc45c62f66d279ce9cb1f5621921ee248733dda284c5d",
    ("recursive", "collapsed"): "083e7ee61deb49616c825426d83e6a4e72bf1f0f90ec484024f0e973a4ea6d07",
    ("recursive", "folded"): "5f0fe8e037113fa84732dd4693709ee7650cec8b23c698265c7745dab49fa171",
    ("corners", "collapsed"): "0ec9e60be85092faed9e8cdf82d8540c8e5e771bb3fbd47e7c1ea808382a6df8",
    ("corners", "folded"): "0ec9e60be85092faed9e8cdf82d8540c8e5e771bb3fbd47e7c1ea808382a6df8",
}


#: sha256 over the comma-joined ``Trace.content_digest()`` of each
#: subject's traces under a dense synthetic placement (see
#: ``_densely_marked``), without and then with procedure-entry marks,
#: for the subject's spec, the collapsing spec and the folding spec of
#: ``RESHAPED_DIGESTS``.  No technique marks every edge, so these reach
#: what the Table 2 placements leave out: one mark on several edges
#: (into a loop header or a folded block), entry marks on folded and
#: inlined callees, and entry marks merged into a first segment.
#: Recorded before traces were laid onto shared skeletons.
DENSE_DIGESTS = {
    "179.art": "b708fb0ce5a892b2511ae0649413228944de79283cdcdfa36f8012a1fd20811c",
    "164.gzip": "65b0164a18acf6a776d7de7b54c24d9b10c89357e8a5a423951b7063c5647873",
    "recursive": "a1ee0111b5054c79d58dd0d6f2d15ad3f699d725d0476c1b227f823a00f3547d",
    "corners": "b8c316608f6a715975816c6add56d36ccf9b4919003ed80af3567fdb3a9a368a",
}


def _subjects():
    """``(name, program, spec)`` of every benchmark the tests build."""
    for name in PROGRAMS:
        bench = spec_benchmark(name)
        yield name, bench.program, bench.spec
    yield "recursive", *RECURSIVE
    yield "corners", *CORNERS


def _build_all(cache_for):
    """``{(benchmark, variant): (trace, isolated_seconds)}`` with the
    cache ``cache_for()`` returns for each build."""
    machine = core2quad_amp()
    built = {}
    for name, program, spec in _subjects():
        for variant in VARIANTS:
            strategy = parse_strategy(variant) if variant else None
            built[name, variant] = run_trace(
                program, strategy, machine, spec, cache=cache_for()
            )
    return built


def test_shared_cache_builds_equal_fresh_caches():
    shared = PipelineCache()
    together = _build_all(lambda: shared)
    apart = _build_all(PipelineCache)
    ctypes = [ct.name for ct in core2quad_amp().core_types()]
    assert together.keys() == apart.keys()
    for key, (trace, isolated) in together.items():
        fresh_trace, fresh_isolated = apart[key]
        assert isolated == fresh_isolated, key
        assert trace == fresh_trace, key
        for seg, fresh_seg in zip(trace.segments(), fresh_trace.segments()):
            for name in ctypes:
                assert seg.cost_tuple(name) == fresh_seg.cost_tuple(name), key
        flat, fresh_flat = flat_trace(trace), flat_trace(fresh_trace)
        assert flat.n == fresh_flat.n, key
        assert flat.segs == fresh_flat.segs, key
        for name in ctypes:
            # Whole step rows: every float the batched executor reads
            # and the mark flags that route its entries.
            assert flat.rows[name] == fresh_flat.rows[name], key


def test_traces_match_pinned_digests():
    cache = PipelineCache()
    digests = {
        key: trace.content_digest()
        for key, (trace, _) in _build_all(lambda: cache).items()
    }
    assert digests == {
        (name, variant): digest
        for name, by_variant in PINNED_DIGESTS.items()
        for variant, digest in by_variant.items()
    }


def test_fairness_traces_match_pinned_digests():
    machine = core2quad_amp()
    cache = PipelineCache()
    workload = Workload.random(18, seed=1)
    digests = {}
    for name in sorted(workload.benchmark_names()):
        bench = spec_benchmark(name)
        digests[name] = {
            variant: run_trace(
                bench.program,
                parse_strategy(variant) if variant else None,
                machine,
                bench.spec,
                cache=cache,
            )[0].content_digest()
            for variant in VARIANTS
        }
    assert digests == FAIRNESS_DIGESTS


def test_reshaped_traces_match_pinned_digests():
    machine = core2quad_amp()
    cache = PipelineCache()
    digests = {}
    for name, program, spec in _subjects():
        for shape, reshaped in (
            ("collapsed", replace(spec, segment_budget=1)),
            ("folded", replace(spec, max_inline_depth=0)),
        ):
            traces = [
                run_trace(
                    program,
                    parse_strategy(variant) if variant else None,
                    machine,
                    reshaped,
                    cache=cache,
                )[0]
                for variant in VARIANTS
            ]
            blob = ",".join(trace.content_digest() for trace in traces)
            digests[name, shape] = hashlib.sha256(blob.encode()).hexdigest()
    assert digests == RESHAPED_DIGESTS


def _densely_marked(program, entries: bool) -> InstrumentedProgram:
    """*program* with one mark on all the edges into each block that has
    predecessors, announcing the block index's parity, and with
    *entries*, one more on each procedure's entry."""
    points = []
    for proc in program:
        cfg = cached_cfg(proc)
        if entries:
            points.append(
                TransitionPoint(proc.name, "bb", 1, 0, frozenset({0}), 1, (), True)
            )
        for block in cfg.blocks:
            edges = tuple((src, block.index) for src in cfg.preds(block.index))
            if edges:
                points.append(
                    TransitionPoint(
                        proc.name,
                        "bb",
                        block.index % 2,
                        block.index,
                        frozenset({block.index}),
                        1,
                        edges,
                    )
                )
    marks = [PhaseMark(mark_id, point) for mark_id, point in enumerate(points)]
    aprog = annotate_program(program, typed_blocks(program))
    return InstrumentedProgram(program, aprog, "dense", marks)


def test_dense_placements_match_pinned_digests():
    machine = core2quad_amp()
    digests = {}
    for name, program, spec in _subjects():
        generator = TraceGenerator(machine)
        parts = [
            generator.generate(_densely_marked(program, entries), shaped)
            for shaped in (
                spec,
                replace(spec, segment_budget=1),
                replace(spec, max_inline_depth=0),
            )
            for entries in (False, True)
        ]
        blob = ",".join(trace.content_digest() for trace in parts)
        digests[name] = hashlib.sha256(blob.encode()).hexdigest()
    assert digests == DENSE_DIGESTS


def test_unmarked_segments_are_the_skeletons_own():
    """The stock trace is the skeleton's nodes, and a tuned trace
    reuses every segment (and every repeat over them) where its
    placement resolves no mark."""
    cache = PipelineCache()
    machine = core2quad_amp()
    for name, program, spec in _subjects():
        stock, _ = run_trace(program, None, machine, spec, cache=cache)
        (skeleton,) = cache.analysis._skeletons[program].values()
        assert list(map(id, stock.nodes)) == list(map(id, skeleton.root.stock))
        stock_segments = {id(seg) for seg in stock.segments()}
        for variant in TABLE2_VARIANTS:
            tuned, _ = run_trace(
                program, parse_strategy(variant), machine, spec, cache=cache
            )
            for seg in tuned.segments():
                unmarked = not seg.entry_marks and not seg.embedded
                assert unmarked == (id(seg) in stock_segments), (name, variant)


def test_one_tuned_trace_per_mark_placement():
    cache = PipelineCache()
    machine = core2quad_amp()
    for name, program, spec in _subjects():
        by_placement: dict = {}
        for variant in TABLE2_VARIANTS:
            tuned = tune_program(
                program, parse_strategy(variant), machine, spec, cache=cache
            )
            placement = tuned.instrumented.placement()
            by_placement.setdefault(placement, []).append(tuned.tuned_trace)
        assert len(by_placement) < len(TABLE2_VARIANTS), name
        for traces in by_placement.values():
            assert all(trace is traces[0] for trace in traces), name
        distinct = [traces[0] for traces in by_placement.values()]
        assert len({id(trace) for trace in distinct}) == len(distinct), name


def test_placement_is_what_tracegen_reads():
    """Techniques with one placement differ in nothing a generator
    reads: the CFGs are the program's whatever the typing."""
    cache = PipelineCache()
    for name, program, _ in _subjects():
        for variant in TABLE2_VARIANTS:
            marked = instrument_cached(program, parse_strategy(variant), cache=cache)
            assert marked.program is program
            for proc in program:
                assert marked.aprog.cfgs[proc.name] is cached_cfg(proc), name


def test_placements_differing_only_in_phase_types_do_not_share():
    """Flipping every block's type keeps the marks on the same edges
    (as for Figure 7's injected typing errors) but changes what each
    announces, so the two tuned traces must differ."""
    machine = core2quad_amp()
    program, spec = make_phased_program("flipped")
    cache = PipelineCache()
    typing = typed_blocks(program, cache=cache)
    flipped = BlockTyping(
        {uid: typing.num_types - 1 - t for uid, t in typing.types.items()},
        typing.num_types,
    )
    strategy = parse_strategy("Loop[45]")
    stock = tune_program(program, strategy, machine, spec, cache=cache)
    swapped = tune_program(program, strategy, machine, spec, flipped, cache)
    edges, flipped_edges = (
        [(m.mark_id, m.point.trigger_edges) for m in tuned.instrumented.marks]
        for tuned in (stock, swapped)
    )
    assert edges and edges == flipped_edges
    assert swapped.tuned_trace != stock.tuned_trace
    fresh = tune_program(program, strategy, machine, spec, flipped, PipelineCache())
    assert swapped.tuned_trace == fresh.tuned_trace


def test_fairness_setup_generates_one_trace_per_placement(monkeypatch):
    """A cold Table 2 set-up at fairness scale looks up 15 benchmarks x
    18 variants of tuned traces, generates one per placement and walks
    each benchmark once: its stock trace and every placement share one
    skeleton."""
    counts = Counter()
    real_generate = TraceGenerator.generate
    real_lookup = AnalysisMemo.tuned_trace
    real_build = _SkeletonBuilder.build

    def build(self):
        counts["skeletons"] += 1
        return real_build(self)

    def generate(self, target, spec=None):
        if isinstance(target, InstrumentedProgram):
            counts["generated"] += 1
        return real_generate(self, target, spec)

    def lookup(self, instrumented, machine, spec):
        counts["lookups"] += 1
        return real_lookup(self, instrumented, machine, spec)

    monkeypatch.setattr(TraceGenerator, "generate", generate)
    monkeypatch.setattr(AnalysisMemo, "tuned_trace", lookup)
    monkeypatch.setattr(_SkeletonBuilder, "build", build)
    _fairness_setup(PipelineCache())
    assert counts == {"lookups": 270, "generated": 167, "skeletons": 15}


def _fairness_setup(cache: PipelineCache) -> None:
    """A cold seed-1 ``fairness-paper`` set-up: the stock run and the 18
    Table 2 variants of its 15 benchmarks, 19 workload runs."""
    config = ExperimentConfig.fairness_paper().with_(seed=1)
    workload = Workload.random(config.slots, seed=1)
    machine = config.resolved_machine()
    WorkloadRun(workload, machine, cache=cache)
    for name in TABLE2_VARIANTS:
        WorkloadRun(workload, machine, config.strategy(name), cache=cache)


def test_scope_costs_are_keyed_by_trips_and_recursion_depth():
    """Specs differing only in trip counts, default trip or recursion
    depth share a cache and still build what fresh caches build."""
    machine = core2quad_amp()
    program, spec = RECURSIVE
    untripped = replace(spec, trip_counts={("main", "outer"): 6})
    specs = [
        spec,
        replace(spec, recursion_depth=2),
        spec.with_trips(walk__cloop=90),
        untripped,
        replace(untripped, default_trip=7.0),
    ]
    shared = PipelineCache()
    for variant in (None, "BB[10,0]", "Loop[30]"):
        strategy = parse_strategy(variant) if variant else None
        traces = [
            run_trace(program, strategy, machine, s, cache=shared)[0] for s in specs
        ]
        fresh = [
            run_trace(program, strategy, machine, s, cache=PipelineCache())[0]
            for s in specs
        ]
        assert traces == fresh, variant
        assert len({trace.content_digest() for trace in traces}) == len(specs)


def test_memoized_costs_equal_recomputed_ones():
    """No build mutates a shared block vector or a skeleton's segments:
    after every variant is built, each equals a private recomputation."""
    cache = PipelineCache()
    _build_all(lambda: cache)
    machine = core2quad_amp()
    ctypes = [ct.name for ct in machine.core_types()]
    (model,) = cache.analysis._cost_models.values()
    specs = {program: spec for _, program, spec in _subjects()}
    assert set(model._programs.keys()) == set(specs)
    assert set(cache.analysis._skeletons.keys()) == set(specs)
    for program, spec in specs.items():
        blocks = {b.uid: b for proc in program for b in cached_cfg(proc).blocks}
        vectors = model._programs[program].vectors
        assert vectors and vectors.keys() <= blocks.keys()
        private = CostModel(machine)
        for uid, vector in vectors.items():
            assert vector == private.block_vector(blocks[uid], program), uid

        fresh = TraceGenerator(machine).generate(program, spec)
        (skeleton,) = cache.analysis._skeletons[program].values()
        shared = Trace(tuple(skeleton.root.stock))
        assert shared == fresh, program.name
        for seg, fresh_seg in zip(shared.segments(), fresh.segments()):
            for name in ctypes:
                assert seg.cost_tuple(name) == fresh_seg.cost_tuple(name)


@pytest.fixture()
def counted(monkeypatch):
    """Counters of liveness runs per CFG and of block costs computed
    (not served from the memo) per (program, block, core type)."""
    liveness = Counter()
    costs = Counter()
    real_liveness = rewriter.compute_liveness
    real_cost = CostModel._block_cost

    def count_liveness(cfg, *args, **kwargs):
        liveness[id(cfg)] += 1
        return real_liveness(cfg, *args, **kwargs)

    def count_cost(self, block, ctype, program, memo):
        if (block.uid, ctype.name) not in memo.blocks:
            costs[program.name, block.uid, ctype.name] += 1
        return real_cost(self, block, ctype, program, memo)

    monkeypatch.setattr(rewriter, "compute_liveness", count_liveness)
    monkeypatch.setattr(CostModel, "_block_cost", count_cost)
    return liveness, costs


def test_liveness_and_costs_computed_once_per_cache(counted):
    liveness, costs = counted
    cache = PipelineCache()
    _build_all(lambda: cache)
    assert liveness and set(liveness.values()) == {1}
    assert costs and set(costs.values()) == {1}
    procedures = set(liveness)
    blocks = set(costs)

    # The products are not pipeline entries: a rebuild after clear()
    # recomputes each of them once more, and so does a new cache.
    cache.clear()
    _build_all(lambda: cache)
    assert set(liveness) == procedures and set(liveness.values()) == {2}
    assert set(costs) == blocks and set(costs.values()) == {2}
    fresh = PipelineCache()
    _build_all(lambda: fresh)
    assert set(liveness.values()) == {3}
    assert set(costs.values()) == {3}


def _count_calls(monkeypatch, function, key=None) -> Counter:
    """Count the calls of *function* made through any ``repro`` module
    that binds it, bucketed by ``key(*args)`` (one bucket by default),
    so no caller can bypass the count."""
    counts = Counter()

    def counted(*args, **kwargs):
        counts[key(*args) if key else None] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, function.__name__, None) is function
        ):
            monkeypatch.setattr(module, function.__name__, counted)
    return counts


@pytest.fixture()
def static_work(monkeypatch):
    """Runs of each shared static analysis: ``find_loops`` per CFG,
    the others in total."""
    return {
        "summarize_loops": _count_calls(monkeypatch, summarize_loops),
        "summarize_intervals": _count_calls(monkeypatch, summarize_intervals),
        "partition_intervals": _count_calls(monkeypatch, partition_intervals),
        "bb_sections": _count_calls(monkeypatch, basic_block_sections),
        "find_loops": _count_calls(monkeypatch, find_loops, key=id),
    }


def test_static_analyses_computed_once_per_program_and_typing(static_work):
    """A cold Table 2 set-up at fairness scale (15 programs with 165
    procedures, one typing each, 18 techniques) summarizes each
    program's loops once, each procedure's intervals once, finds each
    CFG's loops once and selects basic-block sections once per program
    and BB min size (10, 15 and 20): the techniques only filter them.
    The sharing leaves the pipeline's 525 hits and 1,110 misses as they
    were when every variant analysed its program afresh."""
    find_loops_per_cfg = static_work.pop("find_loops")
    once = {
        "summarize_loops": 15,
        "summarize_intervals": 165,
        "partition_intervals": 165,
        "bb_sections": 45,
    }
    cache = PipelineCache()
    for rounds in (1, 2):
        # The analyses are not entries: a set-up after clear() computes
        # each of them once more.
        if rounds == 2:
            cache.clear()
        _fairness_setup(cache)
        runs = {name: sum(counts.values()) for name, counts in static_work.items()}
        assert runs == {name: count * rounds for name, count in once.items()}
        assert len(find_loops_per_cfg) == 165
        assert set(find_loops_per_cfg.values()) == {rounds}
        assert (cache.hits, cache.misses) == (525, 1110)


def test_shared_analyses_are_not_entries():
    cache = PipelineCache()
    machine = core2quad_amp()
    bench = spec_benchmark(PROGRAMS[0])

    def lookup(variant):
        strategy = parse_strategy(variant)
        run_trace(bench.program, strategy, machine, bench.spec, cache=cache)

    lookup("Loop[45]")
    for variant in ("Loop[30]", "Int[45]", "Int[30]", "BB[15,0]", "BB[15,2]"):
        stats = cache.stats()
        lookup(variant)
        after = cache.stats()
        # Each technique misses its own levels only; the costs, liveness,
        # loops, intervals, summaries and sections it reuses are neither
        # hits nor misses.
        assert after["hits"] - stats["hits"] == 2, variant  # typing + baseline
        assert after["misses"] - stats["misses"] == 4, variant
    # Every entry is a miss's product; the analyses add none.
    assert len(cache) == cache.misses
    # One summary per program or CFG and typing, one section set per
    # min size.
    typing = typed_blocks(bench.program, cache=cache)
    static = cache.analysis.static
    (loop_summaries,) = static._loop_summaries.values()
    assert list(loop_summaries) == [typing.fingerprint]
    assert len(static._interval_summaries) == len(bench.program.procedures)
    for interval_summaries in static._interval_summaries.values():
        assert list(interval_summaries) == [typing.fingerprint]
    (bb_sections,) = static._bb_sections.values()
    assert list(bb_sections) == [(typing.fingerprint, 15)]


def test_dropped_program_costs_never_reach_a_new_program():
    """An ad-hoc program built, dropped and followed by a different one
    with the same name, procedures and block uids gets its own costs."""
    cache = PipelineCache()
    machine = core2quad_amp()
    first, spec = make_phased_program("adhoc", outer=4)
    _, first_seconds = baseline_binary(first, machine, spec, cache=cache)
    del first
    gc.collect()
    second, spec = make_phased_program(
        "adhoc", compute_iters=7, memory_iters=9, outer=4
    )
    second_trace, second_seconds = baseline_binary(second, machine, spec, cache=cache)
    fresh_trace, fresh_seconds = baseline_binary(
        second, machine, spec, cache=PipelineCache()
    )
    assert second_trace == fresh_trace
    assert second_seconds == fresh_seconds
    assert second_seconds != first_seconds


def test_dropped_program_leaves_the_memo():
    """Products are keyed weakly on the program and CFG objects, so a
    dropped program leaves nothing a later one could be served.  That
    holds for a program that went through the cached pipeline too: its
    fingerprint is memoized weakly, so the fingerprint memo does not
    keep it alive."""
    cache = PipelineCache()
    memo, scratch = cache.analysis, cache.live_scratch
    static = memo.static
    machine = core2quad_amp()
    model = memo.cost_model(machine)
    assert memo.cost_model(machine) is model
    program, spec = make_phased_program("transient")
    cfg = cached_cfg(program["main"])
    static.loops(cfg)
    static.intervals(cfg)
    memo.scopes(cfg)
    model.block_vector(cfg.blocks[0], program)
    for variant in ("Loop[45]", "Int[45]", "BB[10,0]"):
        marked = instrument_cached(program, parse_strategy(variant), cache=cache)
    memo.tuned_trace(marked, machine, spec)
    # The summaries and sections must not hold the program they are
    # keyed on, nor the annotated program that references it.
    shared = (
        static._loops,
        static._intervals,
        static._callgraphs,
        static._interval_summaries,
        static._loop_summaries,
        static._bb_sections,
    )
    assert [len(products) for products in shared] == [1] * len(shared)
    assert len(model._programs) == 1
    assert len(memo._scopes) == 1
    assert len(memo._skeletons) == 1 and len(memo._traces) == 1
    assert len(scratch) == 1
    alive = weakref.ref(program)
    # The cache's own entries hold the instrumented program strongly.
    del program, cfg, marked, cache
    gc.collect()
    assert alive() is None
    assert [len(products) for products in shared] == [0] * len(shared)
    assert len(model._programs) == 0
    assert len(memo._scopes) == 0
    assert len(memo._skeletons) == 0 and len(memo._traces) == 0
    assert len(scratch) == 0
