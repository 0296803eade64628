module Model = Flames_core.Model
module Diagnose = Flames_core.Diagnose
module Propagate = Flames_core.Propagate
module Report = Flames_core.Report
module Budget = Flames_core.Budget
module Err = Flames_core.Err
module Netlist = Flames_circuit.Netlist

type job = {
  label : string;
  netlist : Netlist.t;
  observations : Diagnose.observation list;
  config : Model.config option;
  limits : Propagate.limits option;
  prelude : (int -> unit) option;
}

let job ?label ?config ?limits ?prelude netlist observations =
  let label =
    match label with Some l -> l | None -> netlist.Netlist.name
  in
  { label; netlist; observations; config; limits; prelude }

type outcome = (Diagnose.result, Err.t) result

type retry = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  seed : int;
}

let retry ?(attempts = 3) ?(base_delay = 0.05) ?(max_delay = 1.) ?(seed = 0)
    () =
  if attempts < 1 then invalid_arg "Batch.retry: attempts must be >= 1";
  if base_delay < 0. || max_delay < 0. then
    invalid_arg "Batch.retry: delays must be >= 0";
  { attempts; base_delay; max_delay; seed }

module Metrics = Flames_obs.Metrics
module Trace = Flames_obs.Trace
module Context = Flames_obs.Context
module Events = Flames_obs.Events
module Ids = Flames_obs.Ids

let now () = Unix.gettimeofday ()

(* One request context per job: the job's spans, stage timings and
   cache hit/miss attach to a per-job trace id, and settling emits one
   wide event per job.  Skipped entirely when events are disabled (the
   obs-overhead benchmark's baseline). *)
let job_context _j =
  if Events.enabled () then
    Some (Context.make ~trace_id:(Ids.trace_id ()) ~route:"batch" ())
  else None

let emit_job_event ctx j ~attempts outcome =
  match ctx with
  | None -> ()
  | Some ctx ->
    let status, extra =
      match (outcome : outcome) with
      | Ok r ->
        ( "ok",
          [
            ("degraded", Events.Bool r.Diagnose.degraded);
            ("conflicts", Events.Int (List.length r.Diagnose.conflicts));
          ] )
      | Error (Err.Breaker_open _) -> ("shed", [])
      | Error e -> ("error", [ ("error", Events.Str (Err.to_string e)) ])
    in
    Events.emit ~ctx ~name:"batch.job"
      (("label", Events.Str j.label)
      :: ("status", Events.Str status)
      :: ("attempts", Events.Int attempts)
      :: extra)

let err_of_pool = function
  | Pool.Cancelled -> Err.Cancelled
  | Pool.Timed_out -> Err.Timed_out
  | Pool.Failed e -> Err.of_exn e
  | Pool.Crashed { attempts } -> Err.Worker_crashed { attempts }

(* Jittered exponential backoff, deterministic per (seed, job, attempt)
   via a splitmix64 hash: replayable in tests, yet batches with
   different seeds de-synchronise their retries. *)
let backoff r ~index ~attempt =
  let mix x =
    let open Int64 in
    let x = logxor x (shift_right_logical x 30) in
    let x = mul x 0xBF58476D1CE4E5B9L in
    let x = logxor x (shift_right_logical x 27) in
    let x = mul x 0x94D049BB133111EBL in
    logxor x (shift_right_logical x 31)
  in
  let h =
    mix
      Int64.(
        add
          (mul (of_int r.seed) 0x9E3779B97F4A7C15L)
          (add (mul (of_int index) 0x2545F4914F6CDD1DL) (of_int attempt)))
  in
  let u = Int64.to_float (Int64.shift_right_logical h 11) /. 9.007199254740992e15 in
  let cap =
    Float.min r.max_delay (r.base_delay *. (2. ** float_of_int (attempt - 1)))
  in
  cap *. (0.5 +. (0.5 *. u))

(* The job body records everything Stats later reports — stage latency
   histograms, completion and conflict counters — into the registry;
   nothing is tallied on the side. *)
let run_one cache ?budget ?(attempt = 1) j =
  (match j.prelude with Some f -> f attempt | None -> ());
  let schedule =
    Trace.with_span ~record:Telemetry.compile_seconds "batch.compile"
      (fun () -> Cache.compile cache ?config:j.config j.netlist)
  in
  let result =
    Trace.with_span ~record:Telemetry.diagnose_seconds "batch.diagnose"
      (fun () ->
        Diagnose.run ?config:j.config ?limits:j.limits ?budget ~schedule
          j.netlist j.observations)
  in
  Metrics.incr Telemetry.jobs_completed_total;
  Metrics.incr ~by:(List.length result.Diagnose.conflicts)
    Telemetry.conflicts_total;
  result

(* Stats is a read-out of the metrics registry: the run's share of every
   counter/histogram is the delta between the reading taken at submit
   time and the one at the last await.  Only the job outcome split
   (ok/failed) comes from the outcome list itself — a job that outlives
   its deadline still executes and is charged to the registry, but this
   batch reports it as failed. *)
let summarize ~workers ~wall ~cpu ~before ~after outcomes =
  let d = Telemetry.delta before after in
  let succeeded, failed =
    List.fold_left
      (fun (ok, ko) outcome ->
        match outcome with Ok _ -> (ok + 1, ko) | Error _ -> (ok, ko + 1))
      (0, 0) outcomes
  in
  {
    Stats.jobs = List.length outcomes;
    succeeded;
    failed;
    workers;
    conflicts = d.Telemetry.conflicts;
    cache_hits = d.Telemetry.cache_hits;
    cache_misses = d.Telemetry.cache_misses;
    retried = d.Telemetry.retried;
    shed = d.Telemetry.shed;
    degraded = d.Telemetry.degraded;
    wall_time = wall;
    cpu_time = cpu;
    compile_wall = d.Telemetry.compile_wall;
    diagnose_wall = d.Telemetry.diagnose_wall;
  }

(* A pending job is either in flight or was shed up-front. *)
type pending = Flight of Diagnose.result Pool.promise | Shed of string

let run_in ~pool ?cache ?timeout ?budget ?retry:policy ?breaker jobs =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let before = Telemetry.read () in
  let wall0 = now () and cpu0 = Sys.time () in
  let key j =
    (* jobs over the same circuit/config share one breaker circuit *)
    Cache.fingerprint ?config:j.config j.netlist
  in
  let submit j ~ctx ~attempt =
    (* every attempt gets a freshly armed budget: a retry should not
       inherit the exhausted quotas of the attempt it replaces.  The
       job context is installed around the submission so the pool
       captures it and restores it inside the worker domain. *)
    let budget = Option.map Budget.start budget in
    Context.with_context_opt ctx (fun () ->
        Pool.submit pool ~label:j.label ?timeout ?budget (fun () ->
            run_one cache ?budget ~attempt j))
  in
  let gate j =
    match breaker with
    | None -> `Allow
    | Some b -> Breaker.decide b (key j)
  in
  let pendings =
    List.map
      (fun j ->
        let ctx = job_context j in
        match gate j with
        | `Allow -> (ctx, Flight (submit j ~ctx ~attempt:1))
        | `Shed ->
          Metrics.incr Telemetry.shed_total;
          (ctx, Shed (key j)))
      jobs
  in
  (* awaiting in submission order is what makes the batch deterministic:
     completion order depends on scheduling, the returned list does not *)
  let settle index j (ctx, pending) =
    let k = key j in
    let report ok =
      match breaker with
      | None -> ()
      | Some b -> if ok then Breaker.success b k else Breaker.failure b k
    in
    let rec await_attempt promise attempt =
      match Pool.await promise with
      | Ok r ->
        report true;
        (Ok r, attempt)
      | Error perr ->
        let e = err_of_pool perr in
        report false;
        let want_retry =
          match policy with
          | None -> false
          | Some p -> attempt < p.attempts && Err.retryable e
        in
        if not want_retry then (Error e, attempt)
        else begin
          match gate j with
          | `Shed ->
            Metrics.incr Telemetry.shed_total;
            (Error (Err.Breaker_open k), attempt)
          | `Allow ->
            let p = Option.get policy in
            Unix.sleepf (backoff p ~index ~attempt);
            Metrics.incr Telemetry.retries_total;
            await_attempt (submit j ~ctx ~attempt:(attempt + 1)) (attempt + 1)
        end
    in
    let outcome, attempts =
      match pending with
      | Shed k -> ((Error (Err.Breaker_open k) : outcome), 0)
      | Flight promise -> await_attempt promise 1
    in
    emit_job_event ctx j ~attempts outcome;
    outcome
  in
  let outcomes = List.mapi (fun i (j, p) -> settle i j p)
      (List.combine jobs pendings)
  in
  let wall = now () -. wall0 and cpu = Sys.time () -. cpu0 in
  let stats =
    summarize ~workers:(Pool.workers pool) ~wall ~cpu ~before
      ~after:(Telemetry.read ()) outcomes
  in
  (outcomes, stats)

let run ?workers ?cache ?timeout ?budget ?retry ?breaker jobs =
  Pool.with_pool ?workers (fun pool ->
      run_in ~pool ?cache ?timeout ?budget ?retry ?breaker jobs)

let sequential ?cache jobs =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let before = Telemetry.read () in
  let wall0 = now () and cpu0 = Sys.time () in
  let results =
    List.map
      (fun j ->
        let ctx = job_context j in
        let r = Context.with_context_opt ctx (fun () -> run_one cache j) in
        emit_job_event ctx j ~attempts:1 (Ok r);
        r)
      jobs
  in
  let wall = now () -. wall0 and cpu = Sys.time () -. cpu0 in
  let stats =
    summarize ~workers:1 ~wall ~cpu ~before ~after:(Telemetry.read ())
      (List.map (fun r -> Ok r) results)
  in
  (results, stats)

let pp_outcome ppf = function
  | Ok result -> Format.pp_print_string ppf (Report.summary result)
  | Error e -> Format.fprintf ppf "error: %s" (Err.to_string e)
