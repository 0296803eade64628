(* Every metric the benchmark reports, with the end-to-end metric and
   workload each per-layer metric is expected to move.  BENCHMARK.json
   lists the same names; the self-test keeps the two in step. *)

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  moves : (string * string) option;
      (** per-layer only: the (end-to-end metric, workload) it should
          move; [None] for counts that must repeat exactly and for the
          trace's own quality figures *)
}

let m ?moves name unit_ better = { name; unit_; better; moves }

(* The end-to-end metrics with a bound, in BENCHMARK.json. *)
let end_to_end =
  [
    m "setup_s" "s" `Lower;
    m "latency_p50_ms" "ms" `Lower;
    m "latency_p95_ms" "ms" `Lower;
    m "throughput_rps" "1/s" `Higher;
    m "cpu_ms_per_req" "ms" `Lower;
  ]

(* Printed with the others but kept out of BENCHMARK.json.  [error_rate]
   is 0 on a healthy run, where a bound relative to the parent's median
   means nothing (the result line carries it as [failed] over
   [attempted]).  [peak_rss_mb] follows the OCaml 5 major heap's growth,
   which depends on GC pacing: it moves 10-25 % between runs of the same
   code, more than any bound the harness accepts. *)
let unbounded = [ m "error_rate" "ratio" `Lower; m "peak_rss_mb" "MiB" `Lower ]

let p50 w = ("latency_p50_ms", w)
let p95 w = ("latency_p95_ms", w)

let per_layer =
  [
    m "serve.read_request_us" "us" `Lower ~moves:(p50 "catalog-open");
    m "serve.route_overhead_ms" "ms" `Lower ~moves:(p50 "catalog-open");
    m "serve.transport_ms" "ms" `Lower ~moves:(p50 "catalog-open");
    m "serve.shed_ratio" "ratio" `Lower ~moves:("throughput_rps", "catalog-open");
    m "engine.queue_wait_p95_ms" "ms" `Lower ~moves:(p95 "catalog-open");
    m "engine.cache_hit_ratio" "ratio" `Higher ~moves:(p50 "netlist-cold");
    m "engine.cache_miss_ms" "ms" `Lower ~moves:(p50 "netlist-cold");
    m "circuit.parse_ms" "ms" `Lower ~moves:(p50 "netlist-cold");
    m "core.model_compile_ms" "ms" `Lower ~moves:(p50 "netlist-cold");
    m "core.schedule_lower_ms" "ms" `Lower ~moves:(p50 "netlist-cold");
    m "core.predict_ms" "ms" `Lower ~moves:(p50 "netlist-cold");
    m "core.full_pass_ms" "ms" `Lower ~moves:(p50 "fig7-warm");
    m "core.analyze_ms" "ms" `Lower ~moves:(p50 "fig7-warm");
    m "core.propagate_steps" "count" `Lower ~moves:(p50 "fig7-warm");
    m "core.conflicts" "count" `Lower;
    m "core.diagnoses" "count" `Lower;
    m "sim.mna_solves" "count" `Lower ~moves:(p50 "fig7-warm");
    m "sim.lu_reuse_ratio" "ratio" `Higher ~moves:(p50 "fig7-warm");
    m "sim.mna_solve_us" "us" `Lower ~moves:(p50 "fig7-warm");
    m "atms.hitting_ms" "ms" `Lower ~moves:(p95 "fig7-warm");
    m "atms.candidates" "count" `Lower ~moves:(p95 "fig7-warm");
    m "atms.prune_ratio" "ratio" `Higher ~moves:(p95 "fig7-warm");
    m "atms.nogoods" "count" `Lower ~moves:(p95 "fig7-warm");
    m "session.create_ms" "ms" `Lower ~moves:("throughput_rps", "fig6-session");
    m "session.rebuild_ms" "ms" `Lower ~moves:(p50 "fig6-session");
    m "session.rebuilds" "count" `Lower ~moves:(p50 "fig6-session");
    m "strategy.next_test_ms" "ms" `Lower ~moves:(p50 "fig6-session");
    m "store.append_us" "us" `Lower ~moves:(p95 "fig6-session");
    m "store.bytes_per_round" "bytes" `Lower ~moves:(p95 "fig6-session");
    m "store.fsyncs_per_round" "count" `Lower ~moves:(p95 "fig6-session");
    m "store.recover_ms" "ms" `Lower;
    m "runtime.minor_mwords_per_op" "Mwords" `Lower ~moves:("cpu_ms_per_req", "fig7-warm");
    m "runtime.major_gcs_per_op" "count" `Lower ~moves:("cpu_ms_per_req", "fig7-warm");
    m "obs.trace_overhead_pct" "%" `Lower;
    m "obs.unattributed_pct" "%" `Lower;
  ]
