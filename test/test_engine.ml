(* Tests for the batch-diagnosis engine: the domain worker pool, the
   model-compilation cache, and the determinism guarantee of the batch
   runner against the sequential [Diagnose.run] path. *)

module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module F = Flames_circuit.Fault
module L = Flames_circuit.Library
module Pool = Flames_engine.Pool
module Cache = Flames_engine.Cache
module Batch = Flames_engine.Batch
module Breaker = Flames_engine.Breaker
module Stats = Flames_engine.Stats
module Model = Flames_core.Model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Pool} *)

let test_pool_submit_await () =
  Pool.with_pool ~workers:2 (fun pool ->
      let p = Pool.submit pool (fun () -> 6 * 7) in
      match Pool.await p with
      | Ok v -> check_int "result" 42 v
      | Error _ -> Alcotest.fail "job failed")

let test_pool_order_preserved () =
  Pool.with_pool ~workers:4 (fun pool ->
      let promises =
        List.init 32 (fun i -> Pool.submit pool (fun () -> i * i))
      in
      let results = List.map Pool.await promises in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int "square" (i * i) v
          | Error _ -> Alcotest.fail "job failed")
        results)

exception Boom

let test_pool_exception () =
  Pool.with_pool ~workers:1 (fun pool ->
      let p = Pool.submit pool (fun () -> raise Boom) in
      (match Pool.await p with
      | Error (Pool.Failed Boom) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Failed Boom");
      (* the worker survives a raising job *)
      match Pool.await (Pool.submit pool (fun () -> 1)) with
      | Ok v -> check_int "worker alive" 1 v
      | Error _ -> Alcotest.fail "worker died")

let test_pool_cancel_queued () =
  Pool.with_pool ~workers:1 (fun pool ->
      (* occupy the single worker, then cancel a queued job *)
      let blocker = Pool.submit pool (fun () -> Unix.sleepf 0.2) in
      let victim = Pool.submit pool (fun () -> 99) in
      Unix.sleepf 0.02 (* let the worker pick up the blocker *);
      check_bool "cancelled" true (Pool.cancel victim);
      (match Pool.await victim with
      | Error Pool.Cancelled -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Cancelled");
      check_bool "blocker unaffected" true (Pool.await blocker = Ok ()))

let test_pool_cancel_finished () =
  Pool.with_pool ~workers:1 (fun pool ->
      let p = Pool.submit pool (fun () -> 5) in
      ignore (Pool.await p);
      check_bool "cannot cancel finished" false (Pool.cancel p);
      check_bool "result kept" true (Pool.await p = Ok 5))

let test_pool_timeout_running () =
  Pool.with_pool ~workers:1 (fun pool ->
      let p = Pool.submit pool ~timeout:0.05 (fun () -> Unix.sleepf 0.5; 1) in
      let t0 = Unix.gettimeofday () in
      (match Pool.await p with
      | Error Pool.Timed_out -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Timed_out");
      let waited = Unix.gettimeofday () -. t0 in
      check_bool "await returned at the deadline, not at job end" true
        (waited < 0.4))

let test_pool_timeout_queued () =
  Pool.with_pool ~workers:1 (fun pool ->
      let _blocker = Pool.submit pool (fun () -> Unix.sleepf 0.2) in
      let p = Pool.submit pool ~timeout:0.03 (fun () -> 1) in
      match Pool.await p with
      | Error Pool.Cancelled -> ()
      | Ok _ | Error (Pool.Timed_out | Pool.Failed _ | Pool.Crashed _) ->
        Alcotest.fail "expected Cancelled (deadline passed while queued)")

let test_pool_shutdown_drains () =
  let pool = Pool.create ~workers:2 () in
  let promises = List.init 8 (fun i -> Pool.submit pool (fun () -> i)) in
  Pool.shutdown pool;
  (* graceful: every queued job ran before the workers exited *)
  List.iteri
    (fun i p -> check_bool "ran" true (Pool.await p = Ok i))
    promises;
  (match Pool.submit pool (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must raise");
  Pool.shutdown pool (* idempotent *)

(* {1 Pool supervision} *)

let test_pool_kill_crashed () =
  Pool.with_pool ~workers:2 ~crash_retries:0 (fun pool ->
      let p = Pool.submit pool (fun () -> raise Pool.Kill_worker) in
      (match Pool.await p with
      | Error (Pool.Crashed { attempts = 1 }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Crashed with 0 retries");
      (* the dead worker was replaced: the pool still serves jobs *)
      match Pool.await (Pool.submit pool (fun () -> 7)) with
      | Ok v -> check_int "respawned worker answers" 7 v
      | Error _ -> Alcotest.fail "pool dead after a worker kill")

let test_pool_kill_requeued () =
  Pool.with_pool ~workers:1 ~crash_retries:2 (fun pool ->
      let runs = Atomic.make 0 in
      let p =
        Pool.submit pool (fun () ->
            if Atomic.fetch_and_add runs 1 = 0 then raise Pool.Kill_worker;
            42)
      in
      (match Pool.await p with
      | Ok v -> check_int "requeued run succeeded" 42 v
      | Error _ -> Alcotest.fail "expected success on the second attempt");
      check_int "ran twice" 2 (Atomic.get runs))

(* queue_depth/in_flight are updated a hair after the promise resolves
   (the worker decrements once the job body returns), so consistency is
   asserted by polling, not by a single read after await. *)
let wait_for message pred =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec poll () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" message
    else begin
      Unix.sleepf 0.002;
      poll ()
    end
  in
  poll ()

let test_pool_introspection () =
  Pool.with_pool ~workers:1 (fun pool ->
      check_int "idle queue_depth" 0 (Pool.queue_depth pool);
      check_int "idle in_flight" 0 (Pool.in_flight pool);
      let gate = Atomic.make false in
      let blocker =
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.002
            done)
      in
      wait_for "the blocker to start" (fun () -> Pool.in_flight pool = 1);
      let queued = List.init 3 (fun i -> Pool.submit pool (fun () -> i)) in
      check_int "queued behind the blocker" 3 (Pool.queue_depth pool);
      check_int "one running" 1 (Pool.in_flight pool);
      Atomic.set gate true;
      (match Pool.await blocker with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "blocker failed");
      List.iteri
        (fun i p ->
          match Pool.await p with
          | Ok v -> check_int "queued job result" i v
          | Error _ -> Alcotest.fail "queued job failed")
        queued;
      wait_for "everything drained" (fun () ->
          Pool.queue_depth pool = 0 && Pool.in_flight pool = 0))

let test_pool_introspection_crash () =
  Pool.with_pool ~workers:1 ~crash_retries:0 (fun pool ->
      let p = Pool.submit pool (fun () -> raise Pool.Kill_worker) in
      (match Pool.await p with
      | Error (Pool.Crashed _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Crashed");
      (* the supervision wrapper un-counts the dead worker's job *)
      wait_for "in_flight back to 0 after the crash" (fun () ->
          Pool.queue_depth pool = 0 && Pool.in_flight pool = 0);
      match Pool.await (Pool.submit pool (fun () -> 7)) with
      | Ok v ->
        check_int "respawned worker answers" 7 v;
        wait_for "counters settle on the respawned worker" (fun () ->
            Pool.queue_depth pool = 0 && Pool.in_flight pool = 0)
      | Error _ -> Alcotest.fail "pool dead after the crash")

let test_pool_shutdown_now_cancels () =
  let pool = Pool.create ~workers:1 () in
  let blocker = Pool.submit pool (fun () -> Unix.sleepf 0.2; 1) in
  Unix.sleepf 0.02 (* let the worker pick up the blocker *);
  let queued = List.init 4 (fun i -> Pool.submit pool (fun () -> i)) in
  Pool.shutdown_now pool;
  (* the running job completes (cancellation is cooperative), but the
     jobs still queued must resolve — to Cancelled, not hang *)
  check_bool "running job finished" true (Pool.await blocker = Ok 1);
  List.iter
    (fun p ->
      match Pool.await p with
      | Error Pool.Cancelled -> ()
      | Ok _ | Error _ -> Alcotest.fail "queued job must resolve Cancelled")
    queued;
  Pool.shutdown_now pool (* idempotent *)

(* {1 Cache} *)

let divider () = L.voltage_divider ()

let test_cache_hit_miss () =
  let cache = Cache.create () in
  let m1 = Cache.compile cache (divider ()) in
  let m2 = Cache.compile cache (divider ()) in
  check_bool "same model shared" true (m1 == m2);
  let s = Cache.stats cache in
  check_int "misses" 1 s.Cache.misses;
  check_int "hits" 1 s.Cache.hits;
  check_int "size" 1 s.Cache.size

let test_cache_config_sensitivity () =
  let cache = Cache.create () in
  let net = divider () in
  let _ = Cache.compile cache net in
  let config = { Model.default_config with Model.trusted = [ "vin" ] } in
  let _ = Cache.compile cache ~config net in
  let s = Cache.stats cache in
  check_int "distinct configs miss separately" 2 s.Cache.misses;
  check_int "no spurious hit" 0 s.Cache.hits

let test_cache_fault_sensitivity () =
  let net = divider () in
  let faulty = F.inject net (F.short "r2" ~parameter:"R") in
  check_bool "fault changes fingerprint" true
    (Cache.fingerprint net <> Cache.fingerprint faulty);
  check_string "fingerprint is stable" (Cache.fingerprint net)
    (Cache.fingerprint (divider ()))

let test_cache_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let nets =
    [ divider ();
      L.diode_resistor ~powered:true ();
      L.rc_lowpass () ]
  in
  List.iter (fun n -> ignore (Cache.compile cache n)) nets;
  let s = Cache.stats cache in
  check_int "bounded" 2 s.Cache.size;
  check_int "evicted one" 1 s.Cache.evictions;
  (* LRU: the first (least recently used) entry was the victim *)
  ignore (Cache.compile cache (L.rc_lowpass ()));
  let s = Cache.stats cache in
  check_int "recent entry still resident" 1 s.Cache.hits;
  ignore (Cache.compile cache (divider ()));
  let s = Cache.stats cache in
  check_int "oldest entry was evicted" 4 s.Cache.misses

(* Satellite: the schema/version tag.  v1 entries held compiled models,
   v2 holds flat schedules; the tag leads the fingerprint input, so the
   two representations live under disjoint keys — a consumer can never
   be handed a stale-format value — and a stale-format entry behaves
   like any never-requeried key: it ages out through LRU eviction. *)
let test_cache_schema_mismatch () =
  let net = divider () in
  check_bool "current schema is v2" true (Cache.schema_version = 2);
  (* disjointness: same netlist, same config, different schema tag *)
  check_bool "v1 key never collides with v2" true
    (Cache.fingerprint ~schema:1 net <> Cache.fingerprint net);
  check_string "explicit current schema is the default key"
    (Cache.fingerprint ~schema:Cache.schema_version net)
    (Cache.fingerprint net);
  let config = { Model.default_config with Model.trusted = [ "vin" ] } in
  check_bool "disjoint under every config" true
    (Cache.fingerprint ~schema:1 ~config net
    <> Cache.fingerprint ~config net);
  (* the mismatch eviction path: an old-schema entry is exactly an
     entry whose key the upgraded process never asks for again, so
     under capacity pressure it is the LRU victim while live keys stay
     resident *)
  let cache = Cache.create ~capacity:2 () in
  ignore (Cache.compile cache net) (* the "stale" entry: never re-keyed *);
  ignore (Cache.compile cache (L.rc_lowpass ()));
  ignore (Cache.compile cache (L.rc_lowpass ())) (* keep the live key warm *);
  ignore (Cache.compile cache (L.diode_resistor ~powered:true ()));
  let s = Cache.stats cache in
  check_int "stale entry evicted" 1 s.Cache.evictions;
  check_int "live keys resident" 2 s.Cache.size;
  ignore (Cache.compile cache (L.rc_lowpass ()));
  check_int "live key still hits" 2 (Cache.stats cache).Cache.hits;
  ignore (Cache.compile cache net);
  check_int "stale key is gone: recompiles" 4 (Cache.stats cache).Cache.misses

let test_cache_clear () =
  let cache = Cache.create () in
  ignore (Cache.compile cache (divider ()));
  Cache.clear cache;
  check_int "empty" 0 (Cache.stats cache).Cache.size;
  ignore (Cache.compile cache (divider ()));
  check_int "recompiled" 2 (Cache.stats cache).Cache.misses

(* Four domains miss one key at once, released together from a spin
   barrier: single-flight means one miss, one [Schedule.compile], and
   every caller served the same schedule.  Repeated, because the race it
   guards against only shows under real overlap. *)
let schedule_compiles () =
  Flames_obs.Metrics.histogram_count
    (Flames_obs.Metrics.histogram "flames_schedule_compile_seconds")

let test_cache_single_flight () =
  for _round = 1 to 20 do
    let cache = Cache.create () in
    let net = L.three_stage_amplifier () in
    let compiles0 = schedule_compiles () in
    let go = Atomic.make false in
    let caller () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      Cache.compile cache net
    in
    let others = List.init 3 (fun _ -> Domain.spawn caller) in
    Atomic.set go true;
    let mine = caller () in
    let all = mine :: List.map Domain.join others in
    let s = Cache.stats cache in
    check_int "one miss" 1 s.Cache.misses;
    check_int "every other caller hits" 3 s.Cache.hits;
    check_int "one compile" 1 (schedule_compiles () - compiles0);
    check_bool "one schedule served" true (List.for_all (( == ) mine) all)
  done

(* {1 Batch determinism} *)

(* A cheap faulty-divider job: small circuit, real conflicts. *)
let divider_job ?prelude i =
  let nominal = divider () in
  let faulty = F.inject nominal (F.shifted "r2" ~parameter:"R" 6.8e3) in
  let sol = Flames_sim.Mna.solve faulty in
  let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 } in
  let obs =
    Flames_sim.Measure.probe_all ~instrument sol [ Q.voltage "out" ]
  in
  Batch.job ?prelude ~label:(Printf.sprintf "divider-%02d" i) nominal obs

let render (r : Flames_core.Diagnose.result) =
  Format.asprintf "%a" Flames_core.Report.pp_result r

let test_batch_determinism_fig7 () =
  (* the acceptance bar: the parallel five-defect fig-7 sweep is
     byte-identical to the sequential Diagnose.run path *)
  let jobs = Flames_experiments.Fig7.jobs () in
  let sequential, _ = Batch.sequential jobs in
  let outcomes, stats = Batch.run ~workers:4 jobs in
  check_int "all ok" 5 stats.Stats.succeeded;
  check_int "one topology, one compile" 1 stats.Stats.cache_misses;
  check_int "remaining jobs hit the cache" 4 stats.Stats.cache_hits;
  List.iter2
    (fun seq outcome ->
      match outcome with
      | Ok par -> check_string "byte-identical report" (render seq) (render par)
      | Error _ -> Alcotest.fail "parallel job failed")
    sequential outcomes

let test_batch_order () =
  let jobs = List.init 12 divider_job in
  let outcomes, _ = Batch.run ~workers:4 jobs in
  check_int "all returned" 12 (List.length outcomes);
  List.iter
    (fun o -> check_bool "ok" true (Result.is_ok o))
    outcomes

let test_batch_stress_4_workers () =
  (* 48 jobs through 4 domains on one shared cache: results must be
     complete, in submission order, and identical to the sequential
     reference *)
  let jobs = List.init 48 divider_job in
  let cache = Cache.create () in
  let sequential, _ = Batch.sequential ~cache jobs in
  let outcomes, stats = Batch.run ~workers:4 ~cache jobs in
  check_int "all succeeded" 48 stats.Stats.succeeded;
  check_int "none failed" 0 stats.Stats.failed;
  check_bool "cache reused across batches" true
    (stats.Stats.cache_hits = 48 && stats.Stats.cache_misses = 0);
  List.iter2
    (fun seq outcome ->
      match outcome with
      | Ok par -> check_string "identical" (render seq) (render par)
      | Error _ -> Alcotest.fail "stress job failed")
    sequential outcomes

let test_batch_timeout () =
  (* an absurdly short deadline fails the job without poisoning the pool *)
  let jobs = Flames_experiments.Fig7.jobs () in
  let outcomes, stats = Batch.run ~workers:2 ~timeout:1e-9 jobs in
  check_int "nothing succeeded" 0 stats.Stats.succeeded;
  check_int "all failed" 5 stats.Stats.failed;
  List.iter
    (fun o ->
      match o with
      | Error (Batch.Err.Cancelled | Batch.Err.Timed_out) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected a deadline failure")
    outcomes

(* {1 Retry and load shedding} *)

let test_batch_retry_flaky () =
  let attempts = Atomic.make 0 in
  let job =
    divider_job 0 ~prelude:(fun _attempt ->
        if Atomic.fetch_and_add attempts 1 < 2 then failwith "transient")
  in
  let retry = Batch.retry ~attempts:3 ~base_delay:0.001 ~max_delay:0.005 () in
  let outcomes, stats = Batch.run ~workers:2 ~retry [ job ] in
  (match outcomes with
  | [ Ok _ ] -> ()
  | [ Error e ] ->
    Alcotest.failf "flaky job failed: %s" (Batch.Err.to_string e)
  | _ -> Alcotest.fail "one outcome expected");
  check_int "two retries recorded" 2 stats.Stats.retried;
  check_int "three attempts ran" 3 (Atomic.get attempts)

let test_batch_retry_exhausted () =
  let job = divider_job 0 ~prelude:(fun _ -> failwith "permanent") in
  let retry = Batch.retry ~attempts:2 ~base_delay:0.001 () in
  let outcomes, stats = Batch.run ~workers:1 ~retry [ job ] in
  (match outcomes with
  | [ Error (Batch.Err.Unexpected _) ] -> ()
  | [ Error e ] ->
    Alcotest.failf "expected Unexpected, got %s" (Batch.Err.to_string e)
  | _ -> Alcotest.fail "expected the final attempt's error");
  check_int "one retry before giving up" 1 stats.Stats.retried

let test_batch_breaker_sheds_retry () =
  (* threshold 1: the first failure opens the circuit, so the retry is
     shed instead of submitted — and shedding is not a retry *)
  let job = divider_job 0 ~prelude:(fun _ -> failwith "permanent") in
  let retry = Batch.retry ~attempts:3 ~base_delay:0.001 () in
  let breaker = Breaker.create ~threshold:1 ~cooldown:60. () in
  let outcomes, stats = Batch.run ~workers:1 ~retry ~breaker [ job ] in
  (match outcomes with
  | [ Error (Batch.Err.Breaker_open _) ] -> ()
  | [ Error e ] ->
    Alcotest.failf "expected Breaker_open, got %s" (Batch.Err.to_string e)
  | _ -> Alcotest.fail "one outcome expected");
  check_int "shed recorded" 1 stats.Stats.shed;
  check_int "no retry submitted" 0 stats.Stats.retried

let test_breaker_lifecycle () =
  let now = ref 0. in
  let b = Breaker.create ~threshold:2 ~cooldown:1.0 ~now:(fun () -> !now) () in
  check_bool "closed allows" true (Breaker.decide b "k" = `Allow);
  Breaker.failure b "k";
  check_bool "below threshold still allows" true (Breaker.decide b "k" = `Allow);
  Breaker.failure b "k";
  check_bool "open sheds" true (Breaker.decide b "k" = `Shed);
  check_bool "open state" true (Breaker.state b "k" = `Open);
  check_bool "other keys unaffected" true (Breaker.decide b "other" = `Allow);
  now := 1.5;
  check_bool "cooldown elapsed: probe allowed" true
    (Breaker.decide b "k" = `Allow);
  check_bool "half-open sheds non-probes" true (Breaker.decide b "k" = `Shed);
  Breaker.failure b "k";
  check_bool "probe failure re-opens" true (Breaker.state b "k" = `Open);
  now := 3.0;
  check_bool "second probe allowed" true (Breaker.decide b "k" = `Allow);
  Breaker.success b "k";
  check_bool "probe success closes" true (Breaker.state b "k" = `Closed);
  check_bool "closed again allows" true (Breaker.decide b "k" = `Allow)

let test_explosion_parallel_matches () =
  let sizes = [ 2; 4 ] in
  let seq = Flames_experiments.Explosion.run ~sizes () in
  let par, stats = Flames_experiments.Explosion.run_parallel ~workers:2 ~sizes () in
  check_bool "points identical" true (seq = par);
  check_int "distinct topologies all miss" 2 stats.Stats.cache_misses

let () =
  Alcotest.run "flames_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "order preserved" `Quick test_pool_order_preserved;
          Alcotest.test_case "exception isolation" `Quick test_pool_exception;
          Alcotest.test_case "cancel queued" `Quick test_pool_cancel_queued;
          Alcotest.test_case "cancel finished" `Quick test_pool_cancel_finished;
          Alcotest.test_case "timeout running" `Quick test_pool_timeout_running;
          Alcotest.test_case "timeout queued" `Quick test_pool_timeout_queued;
          Alcotest.test_case "graceful shutdown" `Quick
            test_pool_shutdown_drains;
          Alcotest.test_case "kill: crashed after retries" `Quick
            test_pool_kill_crashed;
          Alcotest.test_case "queue_depth/in_flight introspection" `Quick
            test_pool_introspection;
          Alcotest.test_case "introspection across a crash" `Quick
            test_pool_introspection_crash;
          Alcotest.test_case "kill: requeue succeeds" `Quick
            test_pool_kill_requeued;
          Alcotest.test_case "shutdown_now cancels queued" `Quick
            test_pool_shutdown_now_cancels;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_cache_hit_miss;
          Alcotest.test_case "config in the key" `Quick
            test_cache_config_sensitivity;
          Alcotest.test_case "fault changes the key" `Quick
            test_cache_fault_sensitivity;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "schema mismatch" `Quick
            test_cache_schema_mismatch;
          Alcotest.test_case "clear" `Quick test_cache_clear;
          Alcotest.test_case "single-flight under domains" `Quick
            test_cache_single_flight;
        ] );
      ( "batch",
        [
          Alcotest.test_case "fig7 determinism" `Slow
            test_batch_determinism_fig7;
          Alcotest.test_case "submission order" `Quick test_batch_order;
          Alcotest.test_case "4-worker stress" `Slow
            test_batch_stress_4_workers;
          Alcotest.test_case "per-job timeout" `Quick test_batch_timeout;
          Alcotest.test_case "scaling series parity" `Slow
            test_explosion_parallel_matches;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "retry: flaky job recovers" `Quick
            test_batch_retry_flaky;
          Alcotest.test_case "retry: exhausted" `Quick
            test_batch_retry_exhausted;
          Alcotest.test_case "breaker sheds the retry" `Quick
            test_batch_breaker_sheds_retry;
          Alcotest.test_case "breaker lifecycle" `Quick
            test_breaker_lifecycle;
        ] );
    ]
