(* flames_obs: metrics registry semantics, span tracer invariants, the
   Chrome trace_event and Prometheus exporters, and the leveled logger.

   The exporter tests parse the emitted JSON with Flames_serve.Json
   (the repo deliberately has no JSON dependency) and check the schema
   invariants Perfetto relies on: every B event has a matching E on the
   same track, and timestamps are monotone per track. *)

module Metrics = Flames_obs.Metrics
module Trace = Flames_obs.Trace
module Log = Flames_obs.Log
module Export = Flames_obs.Export
module Ids = Flames_obs.Ids
module Context = Flames_obs.Context
module Events = Flames_obs.Events
module Qdigest = Flames_obs.Digest
module Recorder = Flames_obs.Recorder

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The exporter assertions parse JSON with the service's own parser —
   promoted from the in-test module this file used to carry. *)

module Json = Flames_serve.Json

(* {1 Metrics} *)

let test_counter () =
  Metrics.reset ();
  let c = Metrics.counter "obs_test_counter" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "incr and by" 42 (Metrics.counter_value c);
  let again = Metrics.counter "obs_test_counter" in
  Metrics.incr again;
  Alcotest.(check int) "find-or-create shares state" 43
    (Metrics.counter_value c)

let test_counter_domains () =
  Metrics.reset ();
  let c = Metrics.counter "obs_test_counter_mt" in
  let worker () =
    for _ = 1 to 10_000 do
      Metrics.incr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments across domains" 50_000
    (Metrics.counter_value c)

let test_gauge () =
  Metrics.reset ();
  let g = Metrics.gauge "obs_test_gauge" in
  Metrics.gauge_set g 3.5;
  Metrics.gauge_add g 1.25;
  Alcotest.(check (float 1e-9)) "set then add" 4.75 (Metrics.gauge_value g)

let test_kind_mismatch () =
  let _c = Metrics.counter "obs_test_kind" in
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument
       "Metrics: \"obs_test_kind\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge "obs_test_kind"))

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[ 1.; 2.; 5. ] "obs_test_hist" in
  (* le semantics: a value equal to a bound belongs to that bound's
     bucket, anything above every bound goes to the +inf overflow *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 5.0; 5.1; 100. ];
  Alcotest.(check (list (pair (float 0.) int)))
    "bucket boundaries (le)"
    [ (1., 2); (2., 2); (5., 1); (infinity, 2) ]
    (Metrics.histogram_buckets h);
  Alcotest.(check int) "count" 7 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 115.1 (Metrics.histogram_sum h)

let test_histogram_time () =
  Metrics.reset ();
  let h = Metrics.histogram "obs_test_time" in
  let v = Metrics.time h (fun () -> 7) in
  Alcotest.(check int) "time passes the result through" 7 v;
  Alcotest.(check int) "one observation" 1 (Metrics.histogram_count h);
  Alcotest.check_raises "time re-raises" Exit (fun () ->
      Metrics.time h (fun () -> raise Exit));
  Alcotest.(check int) "exception still observed" 2
    (Metrics.histogram_count h)

let test_snapshot () =
  Metrics.reset ();
  let c = Metrics.counter "obs_test_snap_c" in
  let g = Metrics.gauge "obs_test_snap_g" in
  Metrics.incr ~by:3 c;
  Metrics.gauge_set g 1.5;
  let samples = Metrics.snapshot () in
  let names = List.map (fun s -> s.Metrics.name) samples in
  Alcotest.(check bool) "sorted by name" true
    (names = List.sort compare names);
  let find n =
    (List.find (fun s -> s.Metrics.name = n) samples).Metrics.value
  in
  (match find "obs_test_snap_c" with
  | Metrics.Counter 3 -> ()
  | _ -> Alcotest.fail "counter sample");
  match find "obs_test_snap_g" with
  | Metrics.Gauge v -> Alcotest.(check (float 1e-9)) "gauge sample" 1.5 v
  | _ -> Alcotest.fail "gauge sample"

(* {1 Trace} *)

let test_disabled_noop () =
  Trace.reset ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let v = Trace.with_span "quiet" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 v;
  Trace.instant "dropped";
  Alcotest.(check int) "nothing recorded" 0 (Trace.event_count ());
  Alcotest.check_raises "exception transparent" Exit (fun () ->
      Trace.with_span "quiet" (fun () -> raise Exit));
  Alcotest.(check int) "still nothing recorded" 0 (Trace.event_count ())

let test_span_nesting () =
  Trace.reset ();
  Trace.start ();
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span ~args:[ ("k", "v") ] "inner" (fun () -> 1) + 1)
  in
  (try Trace.with_span "raises" (fun () -> raise Exit)
   with Exit -> ());
  Trace.stop ();
  Alcotest.(check int) "result" 2 v;
  match Trace.tracks () with
  | [ (_tid, events) ] ->
    let shape =
      List.map
        (fun (e : Trace.event) ->
          ( e.Trace.name,
            match e.Trace.phase with
            | Trace.Begin -> "B"
            | Trace.End -> "E"
            | Trace.Instant -> "i" ))
        events
    in
    Alcotest.(check (list (pair string string)))
      "LIFO begin/end pairs, span closed on exception"
      [
        ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E");
        ("raises", "B"); ("raises", "E");
      ]
      shape;
    let ts = List.map (fun (e : Trace.event) -> e.Trace.ts) events in
    Alcotest.(check bool) "timestamps monotone" true
      (ts = List.sort compare ts)
  | tracks ->
    Alcotest.failf "expected one track, got %d" (List.length tracks)

let test_multi_domain_merge () =
  Trace.reset ();
  Trace.start ();
  Trace.with_span "main-span" (fun () -> ());
  let worker name () = Trace.with_span name (fun () -> Unix.sleepf 0.002) in
  let d1 = Domain.spawn (worker "worker-a") in
  let d2 = Domain.spawn (worker "worker-b") in
  Domain.join d1;
  Domain.join d2;
  Trace.stop ();
  let tracks = Trace.tracks () in
  Alcotest.(check bool) "one track per domain" true (List.length tracks >= 3);
  let tids = List.map fst tracks in
  Alcotest.(check bool) "tracks sorted by domain id" true
    (tids = List.sort compare tids);
  Alcotest.(check int) "six events total" 6 (Trace.event_count ());
  let merged = Trace.events () in
  let ts = List.map (fun (e : Trace.event) -> e.Trace.ts) merged in
  Alcotest.(check bool) "merge sorted by timestamp" true
    (ts = List.sort compare ts);
  Alcotest.(check bool) "merge deterministic" true (merged = Trace.events ())

(* {1 Exporters} *)

(* Replays a recording like the one above and checks what Perfetto
   needs: parseable JSON, a traceEvents array, thread_name metadata,
   and per-track well-formedness (B/E properly nested and matched by
   name, timestamps monotone). *)
let test_chrome_trace_schema () =
  Trace.reset ();
  Trace.start ();
  Trace.with_span "stage.one" (fun () ->
      Trace.with_span "stage.two" (fun () -> Trace.instant "tick"));
  let d = Domain.spawn (fun () -> Trace.with_span "stage.par" ignore) in
  Domain.join d;
  Trace.stop ();
  let text = Format.asprintf "%t" Export.chrome_trace in
  let json = Json.parse text in
  let events =
    match Json.mem "traceEvents" json with
    | Some (Json.Arr events) -> events
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "non-empty" true (events <> []);
  let field name e =
    match Json.mem name e with
    | Some v -> v
    | None -> Alcotest.failf "event without %S" name
  in
  let metadata, spans =
    List.partition (fun e -> Json.str (field "ph" e) = "M") events
  in
  Alcotest.(check bool) "thread_name metadata per track" true
    (metadata <> []
    && List.for_all
         (fun e -> Json.str (field "name" e) = "thread_name")
         metadata);
  (* per-track stack discipline and monotone clocks *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
  let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  List.iter
    (fun e ->
      let tid = int_of_float (Json.num (field "tid" e)) in
      let ts = Json.num (field "ts" e) in
      let last =
        match Hashtbl.find_opt last_ts tid with
        | Some r -> r
        | None ->
          let r = ref neg_infinity in
          Hashtbl.add last_ts tid r;
          r
      in
      Alcotest.(check bool) "track timestamps monotone" true (ts >= !last);
      last := ts;
      let stack = stack_of tid in
      let name = Json.str (field "name" e) in
      match Json.str (field "ph" e) with
      | "B" -> stack := name :: !stack
      | "E" -> begin
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "E matches innermost B" top name;
          stack := rest
        | [] -> Alcotest.fail "E without B"
      end
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    spans;
  Hashtbl.iter
    (fun tid stack ->
      if !stack <> [] then Alcotest.failf "unclosed span on track %d" tid)
    stacks

let test_prometheus_export () =
  Metrics.reset ();
  Trace.reset ();
  let c = Metrics.counter ~help:"test counter" "obs_test_prom_total" in
  let h = Metrics.histogram ~buckets:[ 0.1; 1. ] "obs_test_prom_seconds" in
  Metrics.incr ~by:2 c;
  Metrics.observe h 0.05;
  Metrics.observe h 10.;
  let text = Format.asprintf "%t" Export.prometheus in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# HELP obs_test_prom_total test counter";
      "# TYPE obs_test_prom_total counter";
      "obs_test_prom_total 2";
      "# TYPE obs_test_prom_seconds histogram";
      "obs_test_prom_seconds_bucket{le=\"0.1\"} 1";
      (* cumulative: the +Inf bucket counts every observation *)
      "obs_test_prom_seconds_bucket{le=\"+Inf\"} 2";
      "obs_test_prom_seconds_count 2";
    ]

(* {1 Log} *)

let test_log_levels () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Log.set_formatter ppf;
  Log.set_level Log.Info;
  Fun.protect
    ~finally:(fun () ->
      Log.set_formatter Format.err_formatter;
      Log.set_level Log.Warn)
    (fun () ->
      Log.err "boom %d" 1;
      Log.info "visible %s" "line";
      Log.debug "invisible";
      Format.pp_print_flush ppf ();
      let out = Buffer.contents buf in
      Alcotest.(check bool) "error logged" true (contains out "boom 1");
      Alcotest.(check bool) "info logged at level info" true
        (contains out "visible line");
      Alcotest.(check bool) "level tag present" true (contains out "info");
      Alcotest.(check bool) "debug filtered" false (contains out "invisible"))

(* {1 Ids} *)

let test_ids_deterministic () =
  Ids.seed 42;
  let a = Ids.trace_id () in
  let b = Ids.span_id () in
  Ids.seed 42;
  Alcotest.(check string) "seeded stream replays" a (Ids.trace_id ());
  Alcotest.(check string) "span ids too" b (Ids.span_id ());
  Alcotest.(check int) "trace id is 16 hex chars" 16 (String.length a);
  Alcotest.(check int) "span id is 8 hex chars" 8 (String.length b);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    (a ^ b)

let test_ids_unique_across_domains () =
  Ids.seed 7;
  let per_domain = 1_000 in
  let gen () = Array.init per_domain (fun _ -> Ids.trace_id ()) in
  let domains = List.init 4 (fun _ -> Domain.spawn gen) in
  let mine = gen () in
  let all = mine :: List.map Domain.join domains in
  let seen = Hashtbl.create 4096 in
  List.iter (Array.iter (fun id -> Hashtbl.replace seen id ())) all;
  Alcotest.(check int) "no collisions under contention" (5 * per_domain)
    (Hashtbl.length seen)

let test_ids_valid () =
  List.iter
    (fun (expect, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "valid %S" s)
        expect (Ids.valid s))
    [
      (true, "abc-123.X_z");
      (true, String.make 64 'a');
      (false, "");
      (false, String.make 65 'a');
      (false, "has space");
      (false, "quote\"");
      (false, "new\nline");
    ]

(* {1 Context} *)

let test_context_nesting () =
  Alcotest.(check bool) "no context by default" true (Context.current () = None);
  (* annotations without a context are silent no-ops *)
  Context.annotate "dropped" (Context.Int 1);
  Context.add_timing "dropped" 1.0;
  let c1 = Context.make ~trace_id:"t1" () in
  let c2 = Context.make ~trace_id:"t2" ~client:"cli" ~route:"/x" () in
  Context.with_context c1 (fun () ->
      (match Context.current () with
      | Some c ->
        Alcotest.(check string) "c1 installed" "t1" (Context.trace_id c)
      | None -> Alcotest.fail "no context");
      Context.with_context c2 (fun () ->
          match Context.current () with
          | Some c ->
            Alcotest.(check string) "c2 nested" "t2" (Context.trace_id c);
            Alcotest.(check (option string))
              "client" (Some "cli") (Context.client c);
            Alcotest.(check (option string))
              "route" (Some "/x") (Context.route c)
          | None -> Alcotest.fail "no nested context");
      match Context.current () with
      | Some c ->
        Alcotest.(check string) "c1 restored" "t1" (Context.trace_id c)
      | None -> Alcotest.fail "outer context lost");
  Alcotest.(check bool) "uninstalled after" true (Context.current () = None)

let test_context_fields_timings () =
  let c = Context.make ~trace_id:"t" () in
  Context.with_context c (fun () ->
      Context.annotate "k" (Context.Int 1);
      Context.annotate "k" (Context.Int 2);
      Context.annotate "flag" (Context.Bool true);
      Context.add_timing "stage" 0.25;
      Context.add_timing "stage" 0.5;
      Context.set_session "s9");
  Alcotest.(check bool) "latest annotation wins" true
    (List.assoc "k" (Context.fields c) = Context.Int 2);
  Alcotest.(check bool) "bool field kept" true
    (List.assoc "flag" (Context.fields c) = Context.Bool true);
  Alcotest.(check (option string))
    "session joined" (Some "s9") (Context.session_id c);
  match Context.timings c with
  | [ ("stage", dt) ] -> Alcotest.(check (float 1e-9)) "timings sum" 0.75 dt
  | _ -> Alcotest.fail "expected one summed stage timing"

(* The context captured at submission is restored inside the worker
   domain: annotations made by the job land on the request's context,
   and the pool attributes the queue wait to it. *)
let test_context_across_pool () =
  let module Pool = Flames_engine.Pool in
  Pool.with_pool ~workers:2 (fun pool ->
      let c = Context.make ~trace_id:"pool-trace" () in
      let p =
        Context.with_context c (fun () ->
            Pool.submit pool (fun () ->
                Context.annotate "from_worker" (Context.Bool true);
                match Context.current () with
                | Some c -> Context.trace_id c
                | None -> "none"))
      in
      (match Pool.await p with
      | Ok id ->
        Alcotest.(check string) "context restored in worker domain"
          "pool-trace" id
      | Error _ -> Alcotest.fail "job failed");
      Alcotest.(check bool) "worker annotation lands on the request" true
        (List.assoc_opt "from_worker" (Context.fields c)
        = Some (Context.Bool true));
      Alcotest.(check bool) "queue wait attributed" true
        (List.mem_assoc "queue_wait_s" (Context.fields c)))

(* {1 Events} *)

let test_event_json_schema () =
  Events.clear ();
  let c =
    Context.make ~session_id:"s1" ~client:"cli" ~route:"/session/*/measure"
      ~trace_id:"abcd" ()
  in
  Context.with_context c (fun () ->
      Context.add_timing "solve" 0.002;
      Events.emit ~name:"http.request"
        [
          ("status", Events.Int 200);
          ("elapsed_ms", Events.Num 1.5);
          ("degraded", Events.Bool false);
          ("note", Events.Str "x\"y");
        ]);
  match Events.recent () with
  | [ e ] ->
    let json = Json.parse (Events.to_json e) in
    let str k =
      match Json.mem k json with
      | Some (Json.Str s) -> s
      | _ -> Alcotest.failf "missing string field %S" k
    in
    let num k =
      match Json.mem k json with
      | Some (Json.Num f) -> f
      | _ -> Alcotest.failf "missing numeric field %S" k
    in
    Alcotest.(check string) "event" "http.request" (str "event");
    Alcotest.(check string) "trace" "abcd" (str "trace");
    Alcotest.(check string) "session" "s1" (str "session");
    Alcotest.(check string) "client" "cli" (str "client");
    Alcotest.(check string) "route" "/session/*/measure" (str "route");
    Alcotest.(check (float 1e-9)) "status" 200. (num "status");
    Alcotest.(check (float 1e-9)) "elapsed_ms" 1.5 (num "elapsed_ms");
    Alcotest.(check string) "string escaping round-trips" "x\"y" (str "note");
    (match Json.mem "degraded" json with
    | Some (Json.Bool false) -> ()
    | _ -> Alcotest.fail "bool field");
    Alcotest.(check bool) "stage timing becomes a t_ field" true
      (num "t_solve" > 0.)
  | es -> Alcotest.failf "expected one event, got %d" (List.length es)

let test_event_ring () =
  Events.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Events.set_capacity 256)
    (fun () ->
      for i = 1 to 10 do
        Events.emit ~name:(Printf.sprintf "e%d" i) []
      done;
      let recents = Events.recent () in
      Alcotest.(check int) "bounded" 4 (List.length recents);
      Alcotest.(check (list string))
        "oldest first, newest kept"
        [ "e7"; "e8"; "e9"; "e10" ]
        (List.map (fun e -> e.Events.name) recents);
      let seqs = List.map (fun e -> e.Events.seq) recents in
      Alcotest.(check bool) "seq ascending" true
        (seqs = List.sort compare seqs);
      Events.set_enabled false;
      Events.emit ~name:"dropped" [];
      Events.set_enabled true;
      Alcotest.(check int) "disabled drops" 4
        (List.length (Events.recent ())))

(* Four domains interleave emissions: every event keeps its own fields
   (no tearing), the seq counter gives a total order, and nothing is
   lost. *)
let test_event_concurrent_domains () =
  Events.set_capacity 2048;
  Fun.protect ~finally:(fun () -> Events.set_capacity 256) @@ fun () ->
  let per = 250 in
  let worker d () =
    for i = 0 to per - 1 do
      Events.emit ~name:"evt" [ ("d", Events.Int d); ("i", Events.Int i) ]
    done
  in
  let domains = List.init 3 (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  let events = Events.recent () in
  Alcotest.(check int) "all events recorded" (4 * per) (List.length events);
  let seqs = List.map (fun e -> e.Events.seq) events in
  Alcotest.(check bool) "total order by distinct seq" true
    (seqs = List.sort_uniq compare seqs);
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match
        ( List.assoc_opt "d" e.Events.fields,
          List.assoc_opt "i" e.Events.fields )
      with
      | Some (Events.Int d), Some (Events.Int i) ->
        Alcotest.(check bool) "fields not torn" true
          (d >= 0 && d < 4 && i >= 0 && i < per);
        Hashtbl.replace seen (d, i) ()
      | _ -> Alcotest.fail "event lost its fields")
    events;
  Alcotest.(check int) "every (domain, step) pair exactly once" (4 * per)
    (Hashtbl.length seen);
  List.iter (fun e -> ignore (Json.parse (Events.to_json e))) events

(* Stress variant: rounds of four domains emitting at once.  The seq is
   taken under the ring lock, so the ring (oldest first) must hold
   strictly increasing seqs in every round. *)
let test_event_seq_ring_order () =
  Events.set_capacity 4096;
  Fun.protect ~finally:(fun () -> Events.set_capacity 256) @@ fun () ->
  for _round = 1 to 20 do
    Events.clear ();
    let go = Atomic.make false in
    let worker () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      for i = 1 to 200 do
        Events.emit ~name:"evt" [ ("i", Events.Int i) ]
      done
    in
    let domains = List.init 3 (fun _ -> Domain.spawn worker) in
    Atomic.set go true;
    worker ();
    List.iter Domain.join domains;
    let rec increasing = function
      | a :: (b :: _ as rest) -> a.Events.seq < b.Events.seq && increasing rest
      | _ -> true
    in
    let events = Events.recent () in
    Alcotest.(check int) "all events recorded" 800 (List.length events);
    Alcotest.(check bool) "ring order is seq order" true (increasing events)
  done

let test_event_file_sink () =
  Events.clear ();
  let path = Filename.temp_file "flames_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let close = Events.file_sink path in
  Events.emit ~name:"one" [ ("k", Events.Int 1) ];
  Events.emit ~name:"two" [];
  close ();
  Events.emit ~name:"after-close" [];
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event, closed sink writes nothing" 2
    (List.length lines);
  List.iter (fun l -> ignore (Json.parse l)) lines

(* {1 Quantile digests} *)

let test_digest_buckets () =
  List.iter
    (fun v ->
      let i = Qdigest.bucket_index v in
      Alcotest.(check bool) "value under its bucket bound" true
        (v <= Qdigest.bucket_bound i);
      if i > 0 then
        Alcotest.(check bool) "previous bound below value" true
          (Qdigest.bucket_bound (i - 1) < v +. 1e-12))
    [ 1e-6; 1e-4; 0.001; 0.0123; 0.1; 0.25; 1.0; 10.; 99. ];
  Alcotest.(check bool) "overflow bucket is +inf" true
    (Qdigest.bucket_bound 63 = infinity)

let test_digest_quantiles () =
  let d = Qdigest.create ~slo:0.25 () in
  for _ = 1 to 99 do
    Qdigest.observe d 0.01
  done;
  Qdigest.observe d 5.0;
  Alcotest.(check int) "count" 100 (Qdigest.count d);
  Alcotest.(check (float 1e-6)) "sum" 5.99 (Qdigest.sum d);
  let q50 = Qdigest.quantile d 0.5 in
  Alcotest.(check bool) "p50 brackets the mode" true
    (q50 >= 0.01 && q50 < 0.02);
  Alcotest.(check bool) "p100 covers the max" true
    (Qdigest.quantile d 1.0 >= 5.0);
  Alcotest.(check int) "slo breaches" 1 (Qdigest.breaches d);
  Alcotest.(check (float 1e-9)) "empty digest quantile" 0.
    (Qdigest.quantile (Qdigest.create ()) 0.99)

let test_digest_export () =
  Qdigest.reset ();
  let fam =
    Qdigest.family ~slo:0.25 ~help:"route seconds" "obs_test_route_seconds"
  in
  Qdigest.observe_in fam "/session/*/measure" 0.01;
  Qdigest.observe_in fam "/session/*/measure" 0.5;
  Qdigest.observe_in fam "/diagnose" 0.02;
  let text = Format.asprintf "%t" Export.prometheus in
  Fun.protect ~finally:Qdigest.reset @@ fun () ->
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# HELP obs_test_route_seconds route seconds";
      "# TYPE obs_test_route_seconds summary";
      "obs_test_route_seconds{route=\"/diagnose\",quantile=\"0.5\"}";
      "obs_test_route_seconds{route=\"/session/*/measure\",quantile=\"0.99\"}";
      "obs_test_route_seconds_count{route=\"/session/*/measure\"} 2";
      "obs_test_route_seconds_slo_breaches_total{route=\"/session/*/measure\"} \
       1";
    ]

(* {1 Exposition-format escaping} *)

let test_prometheus_escaping () =
  Metrics.reset ();
  Alcotest.(check string) "help_escape" {|a\\b\nc|} (Export.help_escape "a\\b\nc");
  Alcotest.(check string)
    "label_escape" {|a\"b\\c\nd|}
    (Export.label_escape "a\"b\\c\nd");
  let _c =
    Metrics.counter ~help:"line1\nline2 back\\slash" "obs_test_esc_total"
  in
  let text = Format.asprintf "%t" Export.prometheus in
  Alcotest.(check bool) "HELP escaped in exposition" true
    (contains text {|# HELP obs_test_esc_total line1\nline2 back\\slash|})

let test_prometheus_inf_count () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[ 0.1 ] "obs_test_inf_seconds" in
  List.iter (Metrics.observe h) [ 0.05; 0.2; 0.3 ];
  let text = Format.asprintf "%t" Export.prometheus in
  Alcotest.(check bool) "+Inf bucket equals _count" true
    (contains text "obs_test_inf_seconds_bucket{le=\"+Inf\"} 3"
    && contains text "obs_test_inf_seconds_count 3")

(* {1 Flight recorder} *)

let test_recorder_dump () =
  Events.clear ();
  Trace.reset ();
  Trace.start ();
  Trace.with_span "recorded.span" (fun () -> ());
  Trace.stop ();
  Events.emit ~name:"one" [ ("k", Events.Int 1) ];
  Events.emit ~name:"two" [];
  let json = Json.parse (Recorder.dump ()) in
  (match Json.mem "events" json with
  | Some (Json.Arr events) ->
    Alcotest.(check int) "both events dumped" 2 (List.length events);
    List.iter
      (fun e ->
        match Json.mem "event" e with
        | Some (Json.Str _) -> ()
        | _ -> Alcotest.fail "event without a name")
      events
  | _ -> Alcotest.fail "no events array");
  (match Json.mem "spans" json with
  | Some (Json.Arr spans) ->
    Alcotest.(check bool) "span tail present" true (spans <> []);
    List.iter
      (fun s ->
        match (Json.mem "name" s, Json.mem "ph" s) with
        | Some (Json.Str _), Some (Json.Str _) -> ()
        | _ -> Alcotest.fail "span shape")
      spans
  | _ -> Alcotest.fail "no spans array");
  let path = Filename.temp_file "flames_flight" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recorder.write path;
      ignore (Json.parse (In_channel.with_open_bin path In_channel.input_all)))

(* {1 Log trace prefix} *)

let test_log_trace_prefix () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Log.set_formatter ppf;
  Fun.protect
    ~finally:(fun () -> Log.set_formatter Format.err_formatter)
    (fun () ->
      Log.warn "outside any request";
      let c = Context.make ~trace_id:"feedc0de00000000" () in
      Context.with_context c (fun () -> Log.warn "inside the request");
      Format.pp_print_flush ppf ();
      let out = Buffer.contents buf in
      Alcotest.(check bool) "trace prefix on in-context line" true
        (contains out "[trace=feedc0de00000000] ");
      let lines = String.split_on_char '\n' out in
      List.iter
        (fun line ->
          if contains line "outside any request" then
            Alcotest.(check bool) "no prefix outside a context" false
              (contains line "[trace="))
        lines)

(* {1 Engine stats JSON} *)

let test_stats_json () =
  let stats =
    {
      Flames_engine.Stats.jobs = 5;
      succeeded = 4;
      failed = 1;
      workers = 2;
      conflicts = 7;
      cache_hits = 4;
      cache_misses = 1;
      wall_time = 0.5;
      cpu_time = 0.75;
      retried = 0;
      shed = 0;
      degraded = 0;
      compile_wall = 0.125;
      diagnose_wall = 0.25;
    }
  in
  let json = Json.parse (Flames_engine.Stats.to_json stats) in
  let num k =
    match Json.mem k json with
    | Some (Json.Num f) -> f
    | _ -> Alcotest.failf "missing field %S" k
  in
  Alcotest.(check (float 1e-9)) "jobs" 5. (num "jobs");
  Alcotest.(check (float 1e-9)) "succeeded" 4. (num "succeeded");
  Alcotest.(check (float 1e-9)) "failed" 1. (num "failed");
  Alcotest.(check (float 1e-9)) "workers" 2. (num "workers");
  Alcotest.(check (float 1e-9)) "conflicts" 7. (num "conflicts");
  Alcotest.(check (float 1e-9)) "cache_hits" 4. (num "cache_hits");
  Alcotest.(check (float 1e-9)) "wall_s" 0.5 (num "wall_s");
  Alcotest.(check (float 1e-9)) "jobs_per_s" 10. (num "jobs_per_s");
  Alcotest.(check (float 1e-9)) "compile_s" 0.125 (num "compile_s");
  Alcotest.(check (float 1e-9)) "diagnose_s" 0.25 (num "diagnose_s")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter-domains" `Quick test_counter_domains;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind-mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram-buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram-time" `Quick test_histogram_time;
          Alcotest.test_case "snapshot" `Quick test_snapshot;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled-noop" `Quick test_disabled_noop;
          Alcotest.test_case "span-nesting" `Quick test_span_nesting;
          Alcotest.test_case "multi-domain-merge" `Quick
            test_multi_domain_merge;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome-trace-schema" `Quick
            test_chrome_trace_schema;
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
        ] );
      ( "ids",
        [
          Alcotest.test_case "deterministic" `Quick test_ids_deterministic;
          Alcotest.test_case "unique-across-domains" `Quick
            test_ids_unique_across_domains;
          Alcotest.test_case "valid" `Quick test_ids_valid;
        ] );
      ( "context",
        [
          Alcotest.test_case "nesting" `Quick test_context_nesting;
          Alcotest.test_case "fields-timings" `Quick
            test_context_fields_timings;
          Alcotest.test_case "across-pool" `Quick test_context_across_pool;
        ] );
      ( "events",
        [
          Alcotest.test_case "json-schema" `Quick test_event_json_schema;
          Alcotest.test_case "ring" `Quick test_event_ring;
          Alcotest.test_case "concurrent-domains" `Quick
            test_event_concurrent_domains;
          Alcotest.test_case "file-sink" `Quick test_event_file_sink;
          Alcotest.test_case "seq-ring-order-stress" `Quick
            test_event_seq_ring_order;
        ] );
      ( "digest",
        [
          Alcotest.test_case "buckets" `Quick test_digest_buckets;
          Alcotest.test_case "quantiles" `Quick test_digest_quantiles;
          Alcotest.test_case "export" `Quick test_digest_export;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "escaping" `Quick test_prometheus_escaping;
          Alcotest.test_case "inf-equals-count" `Quick
            test_prometheus_inf_count;
        ] );
      ( "recorder",
        [ Alcotest.test_case "dump-schema" `Quick test_recorder_dump ] );
      ( "log-trace",
        [ Alcotest.test_case "prefix" `Quick test_log_trace_prefix ] );
      ("log", [ Alcotest.test_case "levels" `Quick test_log_levels ]);
      ( "stats-json",
        [ Alcotest.test_case "schema" `Quick test_stats_json ] );
    ]
