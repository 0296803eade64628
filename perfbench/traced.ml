(* The traced run: the same seeded operations, each sent once over the
   socket and then replayed in-process through the public functions of
   every layer, timed call by call.  Counts and the time inside the
   spans the program already records come from [Metrics.snapshot]
   deltas around each call; nothing in the program is changed or
   switched on.

   Accounting per operation.  The in-process op time is
   [T = read + handle]: [Http.read_request] over the op's request bytes
   plus [Router.handle] on benchmark-built dependencies, untraced.  It
   is split into layer self times:
   - serve: [read], plus [handle] minus an untraced direct call of the
     work the route dispatches, minus circuit parsing and pool dispatch;
   - circuit, engine, core, sim, atms, session, strategy, store: from a
     staged replay of that direct work, one timed call per layer
     boundary, with the spans nested inside a call (MNA solves inside a
     fit sweep, hitting sets inside ranking, journal appends) subtracted
     from their parent and credited to their own layer.
   Whatever the staged calls leave of the direct call is
   [obs.unattributed_pct]; what the staged replay's instrumentation adds
   on top of the direct call is [obs.trace_overhead_pct]. *)

module Http = Flames_serve.Http
module Router = Flames_serve.Router
module Admission = Flames_serve.Admission
module Server = Flames_serve.Server
module Pool = Flames_engine.Pool
module Cache = Flames_engine.Cache
module Metrics = Flames_obs.Metrics
module Budget = Flames_core.Budget
module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Propagate = Flames_core.Propagate
module Diagnose = Flames_core.Diagnose
module Session = Flames_session.Session
module Journal = Flames_store.Journal
module Record = Flames_store.Record
module Hitting = Flames_atms.Hitting
module Candidates = Flames_atms.Candidates
module Parser = Flames_circuit.Parser
module Q = Flames_circuit.Quantity
module Oracle = Flames_check.Oracle

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  layers : (string * float) list;  (** mean self ms per op, by layer *)
  details : (string * float) list;  (** medians of [extra] *)
  op_ms : float;  (** mean in-process op time *)
}

let layers = [ "serve"; "engine"; "circuit"; "core"; "sim"; "atms"; "session"; "strategy"; "store" ]

(* {1 Registry deltas} *)

let reading () =
  List.filter_map
    (fun (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter n -> Some (s.Metrics.name, float_of_int n)
      | Metrics.Histogram { sum; _ } -> Some (s.Metrics.name, sum)
      | Metrics.Gauge _ -> None)
    (Metrics.snapshot ())

let get r name = Option.value ~default:0. (List.assoc_opt name r)

(* Run [f]; its value, wall time, and how far each counter and span
   histogram of the registry moved meanwhile. *)
let traced f =
  let r0 = reading () in
  let v, dt = Stat.time f in
  let r1 = reading () in
  (v, dt, fun name -> get r1 name -. get r0 name)

let mna = "flames_mna_solve_seconds"
let hitting = "flames_hitting_seconds"

(* {1 Per-run accumulation} *)

type acc = {
  samples : (string, float list) Hashtbl.t;  (** per-op values, by metric *)
  totals : (string, float) Hashtbl.t;  (** run sums, for ratios *)
  mutable ops : int;
  mutable failed : int;
}

let acc () = { samples = Hashtbl.create 64; totals = Hashtbl.create 64; ops = 0; failed = 0 }

let sample a k v =
  Hashtbl.replace a.samples k (v :: Option.value ~default:[] (Hashtbl.find_opt a.samples k))

let total a k v = Hashtbl.replace a.totals k (v +. Option.value ~default:0. (Hashtbl.find_opt a.totals k))
let tot a k = Option.value ~default:0. (Hashtbl.find_opt a.totals k)
let self a layer s = total a ("self." ^ layer) s
let med a k = Stat.median (Option.value ~default:[] (Hashtbl.find_opt a.samples k))
let fail a ok = if not ok then a.failed <- a.failed + 1

(* Per-call medians the catalogue does not list, printed with the
   breakdown. *)
let extra = [ "core.prediction_pass_ms"; "engine.dispatch_ms" ]

(* {1 Benchmark-built service dependencies} *)

let wall = 10.

let deps pool store =
  {
    Router.pool;
    cache = Cache.create ();
    admission = Admission.create ~max_inflight:16 ();
    sessions = Admission.Sessions.create ();
    store = ref store;
    ready = (fun () -> true);
    draining = (fun () -> false);
    default_wall = wall;
    max_wall = wall;
  }

(* The request bytes a client sends, parsed back by the server's own
   reader; only the read is timed.  The whole request must fit the pipe
   buffer (64 KiB on Linux; the workloads' bodies are a few KiB). *)
let read_request ~path body =
  if String.length body > 60_000 then invalid_arg "read_request: body too large for a pipe";
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      Http.write_request w ~meth:"POST" ~path body;
      Unix.close w;
      let req, dt = Stat.time (fun () -> Http.read_request (Http.conn r)) in
      match req with
      | Ok req -> (req, dt)
      | Error _ -> failwith "request bytes do not parse")

(* [Router.handle] in-process, as a transport; each request's read and
   handle times go to [on]. *)
let inproc deps ~on : Work.transport =
 fun ~path body ->
  let req, t_read = read_request ~path body in
  let reply, t_handle = Stat.time (fun () -> Router.handle deps req) in
  on t_read t_handle;
  { Work.status = reply.Router.status; body = reply.Router.body }

(* Run [f] as a pool job; its value, its run time on the worker, and its
   queue wait (submit to start). *)
let on_pool pool f =
  let submitted = Stat.now () in
  let p =
    Pool.submit pool (fun () ->
        let started = Stat.now () in
        let v, dt = Stat.time f in
        (v, dt, started -. submitted))
  in
  match Pool.await p with
  | Ok v -> v
  | Error _ -> failwith "pool job failed"

(* {1 The diagnosis path, staged} *)

let degree = 0.95
let floor = 1e-3
let threshold = 0.02

(* The work a /diagnose job does, one call per layer boundary; [cache]
   plays the server's schedule cache.  Returns the result, per-op metric
   values and self times by layer; runs on a pool worker like the real
   job. *)
let staged_job ~cache ~model_compile (input : Work.input) =
  let out = ref [] and selfs = ref [] in
  let put k v = out := (k, v) :: !out and credit l s = selfs := (l, s) :: !selfs in
  let budget = Budget.start (Budget.spec ~wall ()) in
  let misses0 = (Cache.stats cache).Cache.misses in
  let schedule, t_cache, d =
    traced (fun () -> Cache.compile cache ~config:input.Work.config input.Work.nominal)
  in
  (* a miss compiles the model (no span of its own: its cost is taken
     from the standalone probe) and lowers it into a schedule *)
  let core_in_cache =
    if (Cache.stats cache).Cache.misses > misses0 then
      Float.min t_cache (d "flames_schedule_compile_seconds" +. model_compile)
    else 0.
  in
  credit "core" core_in_cache;
  credit "engine" (t_cache -. core_in_cache);
  let model = Schedule.model schedule in
  let observations, t_obs = Stat.time (fun () -> Work.observations input) in
  credit "sim" t_obs;
  let predictions, t_pred, d =
    traced (fun () -> Schedule.predictions schedule ~floor ~threshold)
  in
  credit "sim" (d mna);
  credit "core" (t_pred -. d mna);
  let steps = ref 0. and solves = ref 0. and resolves = ref 0. and nogoods = ref 0. in
  let count d =
    steps := !steps +. d "flames_propagate_steps_total";
    solves := !solves +. d "flames_mna_solves_total";
    resolves := !resolves +. d "flames_mna_lu_resolves_total";
    nogoods := !nogoods +. d "flames_atms_nogoods_total"
  in
  count d;
  let prediction, t_pe, d =
    traced (fun () ->
        let p = Propagate.create ~budget ~schedule model in
        List.iter (fun (q, v, env) -> Propagate.predict p ~degree q v env) predictions;
        Propagate.run p;
        p)
  in
  count d;
  credit "core" t_pe;
  put "core.prediction_pass_ms" (t_pe *. 1e3);
  let first, t_fp, d =
    traced (fun () ->
        Diagnose.full_pass ~schedule ~budget ~degree ~model ~predictions ~observations
          ~guard_evidence:[] ())
  in
  count d;
  credit "core" t_fp;
  let result, t_an, d =
    traced (fun () ->
        Diagnose.analyze ~schedule ~budget ~degree ~model ~predictions ~prediction ~first
          input.Work.nominal observations)
  in
  count d;
  credit "sim" (d mna);
  credit "atms" (d hitting);
  credit "core" (t_an -. d mna -. d hitting);
  put "core.full_pass_ms" (t_fp *. 1e3);
  put "core.analyze_ms" (t_an *. 1e3);
  put "core.propagate_steps" !steps;
  put "core.conflicts" (float_of_int (List.length result.Diagnose.conflicts));
  put "core.diagnoses" (float_of_int (List.length result.Diagnose.diagnoses));
  put "sim.mna_solves" !solves;
  put "atms.candidates" (d "flames_hitting_candidates_total");
  put "atms.nogoods" !nogoods;
  put "total.resolves" !resolves;
  put "total.prunes" (d "flames_hitting_subsumption_prunes_total");
  (result, !out, !selfs)

(* The work the route dispatches, untraced: what [handle] is compared
   against. *)
let direct_job ~cache (input : Work.input) =
  let budget = Budget.start (Budget.spec ~wall ()) in
  let schedule = Cache.compile cache ~config:input.Work.config input.Work.nominal in
  Diagnose.run ~config:input.Work.config ~schedule ~budget input.Work.nominal
    (Work.observations input)

(* Minor-heap words [f] allocates on the calling domain. *)
let allocated f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

(* Layer costs measured standalone on the op's circuit, whether or not
   the op's path pays them (a warm request never compiles, but what a
   compile of its circuit costs is still tracked). *)
let probes (input : Work.input) ~schedule ~conflicts =
  let nominal = input.Work.nominal and config = input.Work.config in
  let text = Option.value input.Work.text ~default:(Parser.to_string nominal) in
  let _, t_parse = Stat.time (fun () -> Parser.parse text) in
  let model, t_model = Stat.time (fun () -> Model.compile ~config nominal) in
  let _, t_lower = Stat.time (fun () -> Schedule.of_model model) in
  let _, t_miss = Stat.time (fun () -> Cache.compile (Cache.create ()) ~config nominal) in
  let preds, t_pred =
    Stat.time (fun () -> Diagnose.simulator_predictions nominal model ~floor ~threshold)
  in
  let _, t_mna = Stat.time (fun () -> try ignore (Flames_sim.Mna.solve nominal) with _ -> ()) in
  let _, t_hit =
    Stat.time (fun () ->
        Hitting.minimal_hitting_sets (List.map (fun (c : Candidates.conflict) -> c.Candidates.env) conflicts))
  in
  (* the uncached simulator predictions must be the memoised ones *)
  let same = preds = Schedule.predictions schedule ~floor ~threshold in
  ( same,
    t_parse,
    t_model,
    [
      ("circuit.parse_ms", t_parse *. 1e3);
      ("core.model_compile_ms", t_model *. 1e3);
      ("core.schedule_lower_ms", t_lower *. 1e3);
      ("engine.cache_miss_ms", t_miss *. 1e3);
      ("core.predict_ms", t_pred *. 1e3);
      ("sim.mna_solve_us", t_mna *. 1e6);
      ("atms.hitting_ms", t_hit *. 1e3);
    ] )

(* {1 Sessions, staged} *)

(* A session driven by direct calls, journaling first like the route.
   With [a] the calls are timed and credited to their layers. *)
type direct_session = { s : Session.t; journal : Journal.t; sid : string }

let decoded_reading v = Work.interval_of (Flames_serve.Json.parse (Work.reading_json v))

(* Round [k] of a hunt on a directly driven session: returns the
   diagnosis (after the mutation) and the next-test evaluation. *)
let session_round ?a ds ~defect k =
  let readings = (Lazy.force Work.readings).(defect) in
  let probes = List.length Work.hunt_probes in
  let timed layer f =
    match a with
    | None -> f ()
    | Some a ->
      let v, dt, d = traced f in
      (match layer with
      | "store" ->
        sample a "store.append_us" (dt *. 1e6);
        total a "op.store_bytes" (d "flames_store_append_bytes_total");
        total a "op.store_fsyncs" (d "flames_store_fsyncs_total");
        self a "store" dt
      | "diagnoses" ->
        let spans =
          d "flames_schedule_run_seconds" +. d "flames_propagate_run_seconds"
          +. d "flames_diagnose_fit_seconds" +. d "flames_diagnose_rank_seconds"
        in
        sample a "session.rebuild_ms" (dt *. 1e3);
        sample a "session.rebuilds" (d "flames_session_rebuilds_total");
        self a "session" (dt -. spans);
        self a "core" (spans -. d mna -. d hitting);
        self a "sim" (d mna);
        self a "atms" (d hitting)
      | "next" ->
        sample a "strategy.next_test_ms" (dt *. 1e3);
        self a "strategy" (dt -. d mna -. d hitting);
        self a "sim" (d mna);
        self a "atms" (d hitting)
      | _ -> self a layer dt);
      v
  in
  let journal r = timed "store" (fun () -> Journal.append ds.journal r) in
  (if k < probes then begin
     let node, v = List.nth readings k in
     let q = Q.voltage node and v = decoded_reading v in
     journal (Record.Measure { sid = ds.sid; mid = Session.next_id ds.s; quantity = q; interval = v });
     timed "session" (fun () -> ignore (Session.add_measurement ds.s q v))
   end
   else if k = probes then begin
     let m = List.hd (Session.measurements ds.s) in
     let node = Option.get (Work.node_of m.Session.quantity) in
     let v = decoded_reading (Work.narrowed (List.assoc node readings)) in
     journal (Record.Refine { sid = ds.sid; mid = m.Session.id; interval = v });
     timed "session" (fun () -> ignore (Session.refine ds.s ~id:m.Session.id v))
   end
   else begin
     let ms = Session.measurements ds.s in
     let m = List.nth ms (List.length ms - 1) in
     journal (Record.Retract { sid = ds.sid; mid = m.Session.id });
     timed "session" (fun () -> ignore (Session.retract ds.s ~id:m.Session.id))
   end);
  let result = timed "diagnoses" (fun () -> Session.diagnoses ds.s) in
  let next = if k < probes then timed "next" (fun () -> Session.next_test ds.s) else None in
  (result, next)

(* {1 The run} *)

let run w ~seed ~seconds ~workdir =
  let a = acc () in
  let journal_dir name = Filename.concat workdir name in
  let server =
    Server.start
      ~config:
        (E2e.server_config
           ~journal:(match w with Work.Fig6_session -> Some (journal_dir "server") | _ -> None))
      ()
  in
  let pool = Pool.create ~workers:1 () in
  let route_journal =
    match w with Work.Fig6_session -> Some (Journal.open_ (journal_dir "route")) | _ -> None
  in
  let deps = deps pool route_journal in
  let direct_cache = Cache.create () and staged_cache = Cache.create () in
  let direct_journal = Journal.open_ (journal_dir "direct")
  and staged_journal = Journal.open_ (journal_dir "staged") in
  let conn = Client.connect (Server.port server) in
  let sock = Client.transport conn in
  let shed = ref 0 and sent = ref 0 in
  let counting (send : Work.transport) : Work.transport =
   fun ~path body ->
    let r = send ~path body in
    incr sent;
    if r.Work.status = 429 then incr shed;
    r
  in
  let sock = counting sock in
  (* per-op in-process times *)
  let reads = ref 0. and handles = ref 0. in
  let local =
    inproc deps ~on:(fun r h ->
        sample a "serve.read_request_us" (r *. 1e6);
        reads := !reads +. r;
        handles := !handles +. h)
  in
  let begin_op () =
    reads := 0.;
    handles := 0.
  in
  (* Close the books on one op: [direct] is the untraced direct work,
     [parse] the route's netlist parse, [dispatch] its pool hand-off. *)
  let end_op ~sock_s ~words ~direct ~parse ~dispatch ~staged_wall =
    let t_op = !reads +. !handles in
    let serve = !reads +. !handles -. direct -. parse -. dispatch in
    self a "serve" serve;
    self a "circuit" parse;
    self a "engine" dispatch;
    total a "op.t" t_op;
    total a "op.direct" direct;
    total a "op.staged_wall" staged_wall;
    sample a "serve.route_overhead_ms" ((!handles -. direct -. parse -. dispatch) *. 1e3);
    sample a "serve.transport_ms" ((sock_s -. !handles) *. 1e3);
    sample a "runtime.minor_mwords_per_op" (words /. 1e6);
    a.ops <- a.ops + 1
  in
  let layer_sum () = List.fold_left (fun s l -> s +. tot a ("self." ^ l)) 0. layers in
  (* the staged diagnosis of [input] on the pool, checked bit for bit;
     its self times by layer are returned, not booked *)
  let staged_diagnosis input ~bits ~model_compile =
    let (result, out, selfs), t_wall, q =
      on_pool pool (fun () -> staged_job ~cache:staged_cache ~model_compile input)
    in
    List.iter (fun (k, v) -> sample a k v) out;
    fail a (Oracle.result_fingerprint result = bits);
    (selfs, t_wall, q)
  in
  let probe input ~schedule ~conflicts =
    let (same, t_parse, t_model, values), _, _ =
      on_pool pool (fun () -> probes input ~schedule ~conflicts)
    in
    fail a same;
    List.iter (fun (k, v) -> sample a k v) values;
    (t_parse, t_model)
  in
  (* The session, strategy and store layers on a diagnose op's circuit
     and readings: open a session, journal and enter each reading,
     diagnose, recommend the next test. *)
  let probe_sessions = ref 0 in
  let session_probe (input : Work.input) =
    incr probe_sessions;
    let sid = Printf.sprintf "p%d" !probe_sessions in
    let config = input.Work.config in
    let schedule = Cache.compile staged_cache ~config input.Work.nominal in
    let s, t_create = Stat.time (fun () -> Session.create ~config ~schedule input.Work.nominal) in
    sample a "session.create_ms" (t_create *. 1e3);
    Journal.append staged_journal
      (Record.Create { sid; source = Record.Builtin "probe"; trusted = config.Model.trusted });
    List.iter
      (fun (q, v) ->
        let (), dt, d =
          traced (fun () ->
              Journal.append staged_journal
                (Record.Measure { sid; mid = Session.next_id s; quantity = q; interval = v }))
        in
        sample a "store.append_us" (dt *. 1e6);
        total a "op.store_bytes" (d "flames_store_append_bytes_total");
        total a "op.store_fsyncs" (d "flames_store_fsyncs_total");
        ignore (Session.add_measurement s q v))
      (Work.observations input);
    let _, dt, d = traced (fun () -> Session.diagnoses s) in
    sample a "session.rebuild_ms" (dt *. 1e3);
    sample a "session.rebuilds" (d "flames_session_rebuilds_total");
    let _, dt = Stat.time (fun () -> Session.next_test s) in
    sample a "strategy.next_test_ms" (dt *. 1e3);
    Journal.append staged_journal (Record.Close { sid })
  in
  let deadline = ref infinity and arrivals_from = ref infinity in
  let start_clock () =
    deadline := Stat.now () +. seconds;
    arrivals_from := Stat.now () +. (0.75 *. seconds)
  in
  let majors0 = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Client.close conn;
      Server.stop server;
      Pool.shutdown pool)
    (fun () ->
      (match w with
      | Work.Fig7_warm | Work.Netlist_cold | Work.Catalog_open ->
        (* warm the benchmark's own caches like the server's set-up *)
        let warm = E2e.warm_bodies w ~seed in
        List.iter
          (fun body ->
            ignore (sock ~path:"/diagnose" body);
            ignore (local ~path:"/diagnose" body);
            let input = Work.decode body in
            ignore (on_pool pool (fun () -> direct_job ~cache:direct_cache input));
            ignore (on_pool pool (fun () -> staged_job ~cache:staged_cache ~model_compile:0. input)))
          warm;
        start_clock ();
        majors0 := (Gc.quick_stat ()).Gc.major_collections;
        let stop = match w with Work.Catalog_open -> !arrivals_from | _ -> !deadline in
        let i = ref 0 in
        while Stat.now () < stop do
          let body = Work.diagnose_body w ~seed !i in
          incr i;
          let input = Work.decode body in
          let reply, sock_s = Stat.time (fun () -> sock ~path:"/diagnose" body) in
          fail a (Check.diagnose body reply);
          begin_op ();
          fail a (Check.diagnose body (local ~path:"/diagnose" body));
          let ref_ = Check.reference body in
          let (direct, words), t_direct, dispatch =
            on_pool pool (fun () -> allocated (fun () -> direct_job ~cache:direct_cache input))
          in
          fail a (Oracle.result_fingerprint direct = ref_.Check.bits);
          sample a "engine.dispatch_ms" (dispatch *. 1e3);
          (* probes first: a staged cache miss borrows their model
             compile time *)
          let t_parse, model_compile =
            probe input
              ~schedule:(Cache.compile direct_cache ~config:input.Work.config input.Work.nominal)
              ~conflicts:direct.Diagnose.conflicts
          in
          let parse = if input.Work.text = None then 0. else t_parse in
          let selfs, t_staged, _ = staged_diagnosis input ~bits:ref_.Check.bits ~model_compile in
          List.iter (fun (l, s) -> self a l s) selfs;
          end_op ~sock_s ~words ~direct:t_direct ~parse ~dispatch ~staged_wall:t_staged;
          session_probe input
        done;
        (match w with
        | Work.Catalog_open ->
          (* queue wait on the workload's own arrival schedule *)
          let due = Work.arrivals ~seed ~seconds:(Float.max 0.5 (!deadline -. Stat.now ())) in
          let t0 = Stat.now () in
          let jobs =
            Array.to_list
              (Array.mapi
                 (fun i at ->
                   let wait = t0 +. at -. Stat.now () in
                   if wait > 0. then Thread.delay wait;
                   let input = Work.decode (Work.catalog_pick ~seed i) in
                   let submitted = Stat.now () in
                   (submitted, Pool.submit pool (fun () ->
                        let started = Stat.now () in
                        ignore (direct_job ~cache:direct_cache input);
                        started)))
                 due)
          in
          List.iter
            (fun (submitted, p) ->
              match Pool.await p with
              | Ok started -> sample a "engine.queue_wait_ms" ((started -. submitted) *. 1e3)
              | Error _ -> fail a false)
            jobs
        | _ -> ())
      | Work.Fig6_session ->
        let config = { Model.default_config with trusted = Work.trusted } in
        let amp = Work.amplifier () in
        let open_direct journal sid cache =
          let schedule = Cache.compile cache ~config amp in
          let s, dt = Stat.time (fun () -> Session.create ~config ~schedule amp) in
          Journal.append journal
            (Record.Create { sid; source = Record.Builtin "amplifier"; trusted = Work.trusted });
          ({ s; journal; sid }, dt)
        in
        (* one round of one hunt: over the socket, through the route, on
           the direct session [b] and the staged session [c] *)
        let round (defect, sh, lh, b, c) k =
          let replies, sock_s = Stat.time (fun () -> Work.play_round sock sh k) in
          let survivors = Work.survivors sh in
          fail a (Check.round survivors replies);
          begin_op ();
          fail a (Check.round (Work.survivors lh) (Work.play_round local lh k));
          let ref_ = Check.session_reference survivors in
          let ((rb, _), words), t_direct =
            Stat.time (fun () -> allocated (fun () -> session_round b ~defect k))
          in
          fail a (Oracle.result_fingerprint rb = ref_.Check.bits);
          let (rc, nc), t_staged = Stat.time (fun () -> session_round ~a c ~defect k) in
          fail a (Oracle.result_fingerprint rc = ref_.Check.bits);
          if k < List.length Work.hunt_probes then
            fail a (Work.next_of_eval nc = Lazy.force ref_.Check.next);
          total a "op.rounds" 1.;
          end_op ~sock_s ~words ~direct:t_direct ~parse:0. ~dispatch:0. ~staged_wall:t_staged;
          (* the from-scratch run over the survivors, staged on the pool:
             the core breakdown and the bit-for-bit check.  It checks the
             round rather than being part of it, so its self times are
             not booked. *)
          let input = Work.session_input survivors in
          let _, model_compile =
            probe input ~schedule:(Option.get (Session.schedule c.s))
              ~conflicts:rc.Diagnose.conflicts
          in
          let _, _, q = staged_diagnosis input ~bits:ref_.Check.bits ~model_compile in
          sample a "engine.dispatch_ms" (q *. 1e3)
        in
        start_clock ();
        majors0 := (Gc.quick_stat ()).Gc.major_collections;
        let pass = ref 0 in
        while Stat.now () < !deadline do
          (* opening a pass's twenty sessions is set-up: it does not
             count against the run's seconds *)
          let t_open = Stat.now () in
          let hunts =
            Array.map
              (fun defect ->
                let sh = Work.new_hunt defect and lh = Work.new_hunt defect in
                fail a ((Work.open_hunt sock sh).Work.status = 200);
                fail a ((Work.open_hunt local lh).Work.status = 200);
                let sid p = Printf.sprintf "%s%d-%d" p !pass defect in
                let b, _ = open_direct direct_journal (sid "b") direct_cache in
                let c, t_create = open_direct staged_journal (sid "c") staged_cache in
                sample a "session.create_ms" (t_create *. 1e3);
                (defect, sh, lh, b, c))
              (Work.pass_order ~seed !pass)
          in
          deadline := !deadline +. (Stat.now () -. t_open);
          incr pass;
          for k = 0 to Work.rounds_per_hunt - 1 do
            Array.iter (fun h -> if Stat.now () < !deadline then round h k) hunts
          done;
          Array.iter
            (fun (_, sh, lh, _, _) ->
              fail a ((Work.close_hunt sock sh).Work.status = 200);
              fail a ((Work.close_hunt local lh).Work.status = 200))
            hunts
        done));
  (* restart cost of what the run journaled *)
  Journal.close staged_journal;
  Journal.close direct_journal;
  Option.iter Journal.close route_journal;
  let recover_ms =
    Stat.median
      (List.init 3 (fun _ ->
           1e3 *. snd (Stat.time (fun () -> Journal.recover (journal_dir "staged")))))
  in
  let ops = float_of_int (max 1 a.ops) in
  let t_op = tot a "op.t" in
  let all k = Option.value ~default:[] (Hashtbl.find_opt a.samples k) in
  let solves = Stat.sum (all "sim.mna_solves") and candidates = Stat.sum (all "atms.candidates") in
  let prunes = Stat.sum (all "total.prunes") and resolves = Stat.sum (all "total.resolves") in
  let stats = Cache.stats deps.Router.cache in
  let queue_wait =
    Stat.quantile 0.95
      (match all "engine.queue_wait_ms" with [] -> all "engine.dispatch_ms" | l -> l)
  in
  let rounds = Float.max 1. (tot a "op.rounds") in
  let per_round = match w with Work.Fig6_session -> rounds | _ -> Float.max 1. (float_of_int !probe_sessions) in
  let metrics =
    List.map
      (fun (m : Catalogue.metric) ->
        let n = m.Catalogue.name in
        ( n,
          match n with
          | "serve.shed_ratio" -> Stat.ratio (float_of_int !shed) (float_of_int !sent)
          | "engine.queue_wait_p95_ms" -> queue_wait
          | "engine.cache_hit_ratio" ->
            Stat.ratio (float_of_int stats.Cache.hits) (float_of_int (stats.Cache.hits + stats.Cache.misses))
          | "sim.lu_reuse_ratio" -> Stat.ratio resolves solves
          | "atms.prune_ratio" -> Stat.ratio prunes (prunes +. candidates)
          | "store.bytes_per_round" -> tot a "op.store_bytes" /. per_round
          | "store.fsyncs_per_round" -> tot a "op.store_fsyncs" /. per_round
          | "store.recover_ms" -> recover_ms
          | "runtime.major_gcs_per_op" ->
            float_of_int ((Gc.quick_stat ()).Gc.major_collections - !majors0) /. ops
          | "obs.trace_overhead_pct" ->
            100. *. Stat.ratio (tot a "op.staged_wall" -. tot a "op.direct") t_op
          | "obs.unattributed_pct" -> 100. *. Stat.ratio (t_op -. layer_sum ()) t_op
          | _ -> med a n ))
      Catalogue.per_layer
  in
  {
    attempted = a.ops;
    failed = a.failed;
    metrics;
    layers = List.map (fun l -> (l, tot a ("self." ^ l) /. ops *. 1e3)) layers;
    details = List.map (fun k -> (k, med a k)) extra;
    op_ms = t_op /. ops *. 1e3;
  }

let print_breakdown t =
  Printf.printf "  in-process op %.3f ms, self time per layer (ms/op, share):\n" t.op_ms;
  List.iter
    (fun (l, ms) ->
      Printf.printf "    %-9s %10.3f  %5.1f%%\n" l ms (100. *. Stat.ratio ms t.op_ms))
    t.layers;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %14.6f ms (median)\n" k v) t.details
