// Pre-refactor golden backend payloads for the scenario-parity suite —
// captured from the PR 7 tree (commit 1c82ce7) by running the
// fig2_val/val_protocol smoke presets through ExperimentService and
// dumping canonical_json().at("backends") (wall clock and scheduling
// rounds zeroed).  The pluggable-model refactor must reproduce these
// BYTE-FOR-BYTE under detector=static + attacker=poisson: analytic
// evaluations exactly, Monte-Carlo accumulator states bitwise under
// unchanged stream keying.  Regenerate only if the experiment schedule
// itself changes deliberately (new seeds, new grids) — never to paper
// over a numeric drift.
#pragma once

namespace midas::testing {

// fig2_val --smoke: analytic (batched, batch=8) + DES backends over the
// m x TIDS validation grid.
inline constexpr const char* kGoldenFig2ValSmokeBackends = R"gold(
[
  {
    "backend": "analytic",
    "seconds": 0,
    "evals": [
      {
        "mttsf": 91169.694639631081,
        "ctotal": 99671.094912617147,
        "cost_group_comm": 57875.62098338658,
        "cost_status": 1013.7327001620308,
        "cost_rekey": 3443.9623750903165,
        "cost_ids": 32768,
        "cost_beacon": 3577.8801182189354,
        "cost_partition_merge": 828.71195321204902,
        "eviction_cost_rate": 163.18678254722809,
        "p_failure_c1": 0.0014454930913060981,
        "p_failure_c2": 0.99855450690870962,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 372868.4560314815,
        "ctotal": 120305.74384433155,
        "cost_group_comm": 100920.55185625542,
        "cost_status": 1727.1239809792198,
        "cost_rekey": 6005.174940425155,
        "cost_ids": 4096.0000000000027,
        "cost_beacon": 6095.7316975737313,
        "cost_partition_merge": 1422.9041243721397,
        "eviction_cost_rate": 38.257244725874806,
        "p_failure_c1": 0.080828292298182072,
        "p_failure_c2": 0.91917170770186785,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 300503.52012339432,
        "ctotal": 260576.23068897342,
        "cost_group_comm": 230196.76744920915,
        "cost_status": 3032.2580842311108,
        "cost_rekey": 13723.343903789848,
        "cost_ids": 409.59999999999917,
        "cost_beacon": 10702.087356109791,
        "cost_partition_merge": 2500.8109662661432,
        "eviction_cost_rate": 11.362929367383574,
        "p_failure_c1": 0.98641639203185938,
        "p_failure_c2": 0.013583607968154939,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 1059761.781811724,
        "ctotal": 182563.9710274541,
        "cost_group_comm": 111145.52571712389,
        "cost_status": 1901.0115167566587,
        "cost_rekey": 6613.483240146752,
        "cost_ids": 54613.333333333307,
        "cost_beacon": 6709.4524120823262,
        "cost_partition_merge": 1567.3874410218157,
        "eviction_cost_rate": 13.777366989339209,
        "p_failure_c1": 0.032066649114085938,
        "p_failure_c2": 0.96793335088565891,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 1923506.2821153353,
        "ctotal": 160205.30484934049,
        "cost_group_comm": 133904.04280661244,
        "cost_status": 2147.3744220365979,
        "cost_rekey": 7971.7502482785912,
        "cost_ids": 6826.6666666666806,
        "cost_beacon": 7578.9685483644553,
        "cost_partition_merge": 1771.0485338705419,
        "eviction_cost_rate": 5.4536235111810409,
        "p_failure_c1": 0.519652389454062,
        "p_failure_c2": 0.48034761054622083,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 274222.95699816925,
        "ctotal": 314187.68941424455,
        "cost_group_comm": 278634.77608699456,
        "cost_status": 3407.8604583656188,
        "cost_rekey": 16618.346989463091,
        "cost_ids": 682.66666666666663,
        "cost_beacon": 12027.742794231612,
        "cost_partition_merge": 2810.621120115768,
        "eviction_cost_rate": 5.6752984072105281,
        "p_failure_c1": 0.99988626635338285,
        "p_failure_c2": 0.00011373364662802743,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 3342107.4600352519,
        "ctotal": 213624.29889505904,
        "cost_group_comm": 119271.00431153161,
        "cost_status": 2015.7842968678467,
        "cost_rekey": 7097.613554135839,
        "cost_ids": 76458.666666666468,
        "cost_beacon": 7114.5328124747493,
        "cost_partition_merge": 1662.5111185432629,
        "eviction_cost_rate": 4.1861348392702276,
        "p_failure_c1": 0.10729489090741025,
        "p_failure_c2": 0.89270510909265643,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 2224810.5794527242,
        "ctotal": 172650.92343412174,
        "cost_group_comm": 142616.06564481254,
        "cost_status": 2237.7746913424949,
        "cost_rekey": 8491.8259395928762,
        "cost_ids": 9557.3333333333321,
        "cost_beacon": 7898.0283223852985,
        "cost_partition_merge": 1845.6705206346444,
        "eviction_cost_rate": 4.2249820205404616,
        "p_failure_c1": 0.6262316213735204,
        "p_failure_c2": 0.37376837862645412,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 273472.41019353375,
        "ctotal": 316207.76029721863,
        "cost_group_comm": 280228.62193796737,
        "cost_status": 3418.7099111513999,
        "cost_rekey": 16713.638246172319,
        "cost_ids": 955.73333333333665,
        "cost_beacon": 12066.034980534401,
        "cost_partition_merge": 2819.5694143507185,
        "eviction_cost_rate": 5.4524737090625921,
        "p_failure_c1": 0.99992035019048653,
        "p_failure_c2": 7.9649809538210361e-05,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 3622531.6685011499,
        "ctotal": 236230.51836679981,
        "cost_group_comm": 119946.29939465877,
        "cost_status": 2024.3107477406338,
        "cost_rekey": 7137.8808121138254,
        "cost_ids": 98303.999999999665,
        "cost_beacon": 7144.6261684963556,
        "cost_partition_merge": 1669.5606092058076,
        "eviction_cost_rate": 3.8406345847547669,
        "p_failure_c1": 0.11679177328545881,
        "p_failure_c2": 0.88320822671384458,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 2236225.1959131579,
        "ctotal": 175841.373755687,
        "cost_group_comm": 143028.66999602187,
        "cost_status": 2241.9932637612615,
        "cost_rekey": 8516.4588048933492,
        "cost_ids": 12287.999999999985,
        "cost_beacon": 7912.9174015103144,
        "cost_partition_merge": 1849.1521044163912,
        "eviction_cost_rate": 4.18218508386685,
        "p_failure_c1": 0.63062474186032991,
        "p_failure_c2": 0.3693752581396279,
        "num_states": 10496,
        "solver_blocks": 1751
      },
      {
        "mttsf": 273446.06857549155,
        "ctotal": 316542.41337012791,
        "cost_group_comm": 280284.81802780053,
        "cost_status": 3419.0906251116257,
        "cost_rekey": 16716.99809227775,
        "cost_ids": 1228.7999999999986,
        "cost_beacon": 12067.378676864613,
        "cost_partition_merge": 2819.883415386214,
        "eviction_cost_rate": 5.4445326872103763,
        "p_failure_c1": 0.99992139045300255,
        "p_failure_c2": 7.860954693802439e-05,
        "num_states": 10496,
        "solver_blocks": 1751
      }
    ]
  },
  {
    "backend": "des",
    "seconds": 0,
    "mc": [
      {
        "ttsf": {
          "n": 64,
          "mean": 88723.46147217929,
          "m2": 51379182852.161926
        },
        "cost_rate": {
          "n": 64,
          "mean": 112589.24472906521,
          "m2": 19502172998.955212
        },
        "replications": 128,
        "failures_c1": 0,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 64,
          "mean": 380995.6992530743,
          "m2": 185770362139.50836
        },
        "cost_rate": {
          "n": 64,
          "mean": 123901.35736344289,
          "m2": 20671075046.089005
        },
        "replications": 128,
        "failures_c1": 7,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 294,
          "mean": 311418.20638814487,
          "m2": 17326874150907.936
        },
        "cost_rate": {
          "n": 294,
          "mean": 309257.59197484504,
          "m2": 280201510900.79059
        },
        "replications": 588,
        "failures_c1": 579,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 64,
          "mean": 1061709.2096195524,
          "m2": 922570131543.28735
        },
        "cost_rate": {
          "n": 64,
          "mean": 185430.21175094845,
          "m2": 20573077517.556343
        },
        "replications": 128,
        "failures_c1": 3,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 128,
          "mean": 1899350.564857532,
          "m2": 83276129291202.188
        },
        "cost_rate": {
          "n": 128,
          "mean": 211927.16429643321,
          "m2": 390992947410.04987
        },
        "replications": 256,
        "failures_c1": 137,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 252,
          "mean": 279832.32970454264,
          "m2": 9373324774089.9531
        },
        "cost_rate": {
          "n": 252,
          "mean": 333653.78564290504,
          "m2": 55345887779.569801
        },
        "replications": 504,
        "failures_c1": 504,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 64,
          "mean": 3254274.894018943,
          "m2": 26160771327537.922
        },
        "cost_rate": {
          "n": 64,
          "mean": 227494.29864854086,
          "m2": 68174367079.041092
        },
        "replications": 128,
        "failures_c1": 20,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 128,
          "mean": 2208752.7941053314,
          "m2": 151246564245513.88
        },
        "cost_rate": {
          "n": 128,
          "mean": 229750.14265993581,
          "m2": 437464946188.29895
        },
        "replications": 256,
        "failures_c1": 164,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 220,
          "mean": 270621.9279678922,
          "m2": 7315538899748.4395
        },
        "cost_rate": {
          "n": 220,
          "mean": 335598.84013789147,
          "m2": 37690197971.657028
        },
        "replications": 440,
        "failures_c1": 440,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 64,
          "mean": 3568244.5905080084,
          "m2": 29458658058032.461
        },
        "cost_rate": {
          "n": 64,
          "mean": 249552.39397554769,
          "m2": 58098115452.575043
        },
        "replications": 128,
        "failures_c1": 21,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 128,
          "mean": 2238727.0257484745,
          "m2": 164102609623251.56
        },
        "cost_rate": {
          "n": 128,
          "mean": 232461.45069881075,
          "m2": 479532979569.86743
        },
        "replications": 256,
        "failures_c1": 163,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 226,
          "mean": 275381.30507634528,
          "m2": 8126805904249.1875
        },
        "cost_rate": {
          "n": 226,
          "mean": 335574.61526071641,
          "m2": 40815350443.324646
        },
        "replications": 452,
        "failures_c1": 452,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      }
    ],
    "mc_stats": {
      "points": 12,
      "replications": 3392,
      "blocks": 28,
      "rounds": 0,
      "seconds": 0
    }
  }
]
)gold";

// val_protocol --smoke: analytic + protocol_sim backends (fixed 12-rep
// schedule).
inline constexpr const char* kGoldenValProtocolSmokeBackends = R"gold(
[
  {
    "backend": "analytic",
    "seconds": 0,
    "evals": [
      {
        "mttsf": 32150.289553262275,
        "ctotal": 13199.427553951038,
        "cost_group_comm": 7513.170677175015,
        "cost_status": 480.84449542427274,
        "cost_rekey": 217.89273783560242,
        "cost_ids": 3276.7999999999993,
        "cost_beacon": 1697.0982191444914,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 13.621424371658627,
        "p_failure_c1": 0.058753904490842286,
        "p_failure_c2": 0.94124609550915794,
        "num_states": 232,
        "solver_blocks": 116
      },
      {
        "mttsf": 29133.908194796692,
        "ctotal": 11152.054031063093,
        "cost_group_comm": 7855.315645806766,
        "cost_status": 493.64327395745863,
        "cost_rekey": 227.94486386300304,
        "cost_ids": 819.19999999999993,
        "cost_beacon": 1742.2703786733825,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 13.679868762481249,
        "p_failure_c1": 0.21595908354039076,
        "p_failure_c2": 0.7840409164596096,
        "num_states": 232,
        "solver_blocks": 116
      },
      {
        "mttsf": 17257.050078806435,
        "ctotal": 13212.613164603441,
        "cost_group_comm": 10122.005804391551,
        "cost_status": 577.83546282674968,
        "cost_rekey": 294.60359987563106,
        "cost_ids": 163.83999999999997,
        "cost_beacon": 2039.419280565,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 14.909016944509835,
        "p_failure_c1": 0.69006194000480436,
        "p_failure_c2": 0.30993805999519602,
        "num_states": 232,
        "solver_blocks": 116
      }
    ]
  },
  {
    "backend": "protocol_sim",
    "seconds": 0,
    "mc": [
      {
        "ttsf": {
          "n": 12,
          "mean": 30055.833333333332,
          "m2": 283102867.66666663
        },
        "cost_rate": {
          "n": 12,
          "mean": 19917.362202868673,
          "m2": 120598434.95687142
        },
        "replications": 12,
        "failures_c1": 0,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 12,
          "mean": 31382.5,
          "m2": 817121537
        },
        "cost_rate": {
          "n": 12,
          "mean": 17562.105608619753,
          "m2": 336954419.01738805
        },
        "replications": 12,
        "failures_c1": 1,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 12,
          "mean": 32739.666666666668,
          "m2": 2817579422.6666665
        },
        "cost_rate": {
          "n": 12,
          "mean": 20764.343727190004,
          "m2": 1156000917.2015383
        },
        "replications": 12,
        "failures_c1": 4,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      }
    ],
    "mc_stats": {
      "points": 3,
      "replications": 36,
      "blocks": 9,
      "rounds": 0,
      "seconds": 0
    }
  }
]
)gold";

// rare_event --smoke: analytic + plain DES mc payloads over the 2x2
// t_ids x n_init grid, with every run's vr payload cleared (the vr
// estimates have their own thread/shard gates in test_vr.cpp and
// bench_vr).  Captured at commit 2d226c1, while the legacy
// SweepEngine::run / run_mc entry points still cross-checked these
// exact payloads; it replaces that cross-check.
inline constexpr const char* kGoldenRareEventSmokeBackends = R"gold(
[
  {
    "backend": "analytic",
    "seconds": 0,
    "evals": [
      {
        "mttsf": 16688.937522112697,
        "ctotal": 465236.0993923163,
        "cost_group_comm": 442873.17123701103,
        "cost_status": 498.08884090817725,
        "cost_rekey": 427.3008240850599,
        "cost_ids": 19660.799999999992,
        "cost_beacon": 1757.9606149700385,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 18.777875341988587,
        "p_failure_c1": 0.76703522346868014,
        "p_failure_c2": 0.23296477653132075,
        "num_states": 166,
        "solver_blocks": 83
      },
      {
        "mttsf": 13051.36922497506,
        "ctotal": 165778.7593140614,
        "cost_group_comm": 152513.66422154498,
        "cost_status": 290.23210544522834,
        "cost_rekey": 143.52943178263195,
        "cost_ids": 11796.479999999998,
        "cost_beacon": 1024.348607453747,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 10.504947834796047,
        "p_failure_c1": 0.57907751265654606,
        "p_failure_c2": 0.42092248734345422,
        "num_states": 68,
        "solver_blocks": 34
      },
      {
        "mttsf": 2257.2975331056778,
        "ctotal": 817101.94971262198,
        "cost_group_comm": 812791.67054120265,
        "cost_status": 722.41023400388565,
        "cost_rekey": 790.12782006264979,
        "cost_ids": 245.7600000000001,
        "cost_beacon": 2549.6831788372442,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 2.2979385154638727,
        "p_failure_c1": 0.99999999995422395,
        "p_failure_c2": 4.5775869872029004e-11,
        "num_states": 166,
        "solver_blocks": 83
      },
      {
        "mttsf": 2257.4698808752573,
        "ctotal": 293511.30786636512,
        "cost_group_comm": 291127.06371877127,
        "cost_status": 432.26200055014357,
        "cost_rekey": 277.56590291746147,
        "cost_ids": 147.45599999999996,
        "cost_beacon": 1525.6305901769772,
        "cost_partition_merge": 0,
        "eviction_cost_rate": 1.3296539492675485,
        "p_failure_c1": 0.99999701182176381,
        "p_failure_c2": 2.9881782363057254e-06,
        "num_states": 68,
        "solver_blocks": 34
      }
    ]
  },
  {
    "backend": "des",
    "seconds": 0,
    "mc": [
      {
        "ttsf": {
          "n": 256,
          "mean": 18320.818365526065,
          "m2": 54847162465.38736
        },
        "cost_rate": {
          "n": 256,
          "mean": 591777.57689324394,
          "m2": 9802729757095.7734
        },
        "replications": 256,
        "failures_c1": 187,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 256,
          "mean": 13741.858140937851,
          "m2": 22904315047.350174
        },
        "cost_rate": {
          "n": 256,
          "mean": 202596.23621804477,
          "m2": 1249494000936.4792
        },
        "replications": 256,
        "failures_c1": 135,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 256,
          "mean": 2463.5837985937333,
          "m2": 1464766571.4853129
        },
        "cost_rate": {
          "n": 256,
          "mean": 819701.65506619634,
          "m2": 50487178940.424347
        },
        "replications": 256,
        "failures_c1": 256,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 256,
          "mean": 2463.3626265575081,
          "m2": 1464700360.9304352
        },
        "cost_rate": {
          "n": 256,
          "mean": 295057.66562115331,
          "m2": 17514478017.923958
        },
        "replications": 256,
        "failures_c1": 256,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      }
    ],
    "mc_stats": {
      "points": 4,
      "replications": 1024,
      "blocks": 16,
      "rounds": 0,
      "seconds": 0
    }
  }
]
)gold";

// detector_matrix --smoke: DES-only payloads for the four detector
// models (static, entropy, cusum, logistic) at TIDS = 120 s.  The only
// golden that covers the state-dependent detector paths of the DES
// (per-event effective error rates, the cusum alarm levels).  Captured
// at commit b45ce5f, before the voting kernel and the cusum rate tables
// were rewritten.
inline constexpr const char* kGoldenDetectorMatrixSmokeBackends = R"gold(
[
  {
    "backend": "des",
    "seconds": 0,
    "mc": [
      {
        "ttsf": {
          "n": 128,
          "mean": 1899350.564857532,
          "m2": 83276129291202.188
        },
        "cost_rate": {
          "n": 128,
          "mean": 211927.16429643321,
          "m2": 390992947410.04987
        },
        "replications": 256,
        "failures_c1": 137,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 222,
          "mean": 533561.51587355044,
          "m2": 29982544101400.895
        },
        "cost_rate": {
          "n": 222,
          "mean": 304879.93566378177,
          "m2": 279411581565.29553
        },
        "replications": 444,
        "failures_c1": 433,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 128,
          "mean": 1899350.564857532,
          "m2": 83276129291202.188
        },
        "cost_rate": {
          "n": 128,
          "mean": 211927.16429643321,
          "m2": 390992947410.04987
        },
        "replications": 256,
        "failures_c1": 137,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      },
      {
        "ttsf": {
          "n": 128,
          "mean": 73818.401402071031,
          "m2": 168393927719.13791
        },
        "cost_rate": {
          "n": 128,
          "mean": 140648.62914966367,
          "m2": 265899204392.15134
        },
        "replications": 256,
        "failures_c1": 2,
        "converged": true,
        "keys_always_agreed": true,
        "timeouts": 0,
        "survival_counts": []
      }
    ],
    "mc_stats": {
      "points": 4,
      "replications": 1212,
      "blocks": 10,
      "rounds": 0,
      "seconds": 0
    }
  }
]
)gold";

}  // namespace midas::testing
