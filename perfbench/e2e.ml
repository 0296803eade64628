(* The untraced run: one workload against an in-process server over
   loopback, timed from the client side. *)

module Server = Flames_serve.Server

(* Server shape for every workload: one pool worker (the container has
   two cores: one for the worker, one for the load generator and the
   connection threads); budgets generous enough that no diagnosis
   degrades. *)
let server_config ~journal =
  {
    Server.default_config with
    port = 0;
    workers = 1;
    max_inflight = 16;
    default_wall = 10.;
    max_wall = 10.;
    journal_dir = journal;
  }

(* [setup_s] is the median of several set-ups: three when one costs
   more than 0.3 s, seven for the cheap ones, whose single timings are
   noisier. *)
let setup_reps first = if first > 0.3 then 3 else 7

type record = { latency : float; verdict : unit -> bool }

type outcome = {
  setup_s : float;
  records : record list;
  aux_failures : int;  (** session create/close replies that failed *)
  wall : float;  (** seconds the timed operations took *)
  cpu : float;  (** process CPU seconds over them *)
  conns : int;
  generator_lag_p95 : float option;  (** open loop only, seconds *)
}

(* The diagnose requests that warm a server up, run through the same
   checks as timed ones: every distinct input of a repeating workload,
   four unseen chains for the cold one. *)
let warm_bodies w ~seed =
  match w with
  | Work.Fig7_warm -> Array.to_list (Lazy.force Work.fig7_bodies)
  | Work.Netlist_cold -> List.init 4 (Work.cold_warm_body ~seed)
  | Work.Catalog_open -> Array.to_list (Array.map Work.catalog_body Work.catalog)
  | Work.Fig6_session -> []

let warmup w ~seed conn =
  let send = Client.transport conn in
  match w with
  | Work.Fig6_session ->
    let h = Work.new_hunt 0 in
    let created = Work.open_hunt send h in
    let replies = Work.play_round send h 0 in
    let closed = Work.close_hunt send h in
    [
      created.Work.status = 200;
      Check.round (Work.survivors h) replies;
      closed.Work.status = 200;
    ]
  | _ ->
    List.map (fun body -> Check.diagnose body (send ~path:"/diagnose" body)) (warm_bodies w ~seed)

(* Start a server and warm it up; the returned time is [setup_s]. *)
let set_up w ~seed ~journal =
  let t0 = Stat.now () in
  let server = Server.start ~config:(server_config ~journal) () in
  let conn = Client.connect (Server.port server) in
  let ok = Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> warmup w ~seed conn) in
  (server, Stat.now () -. t0, ok)

(* Closed loop on one connection: the next operation goes out when the
   previous one completed.  Building an operation's request is excluded
   from both its latency and the run's wall and CPU time. *)
let closed_loop ~deadline ~(next : int -> unit -> record) =
  let records = ref [] and gen_cpu = ref 0. and gen_wall = ref 0. in
  let t0 = Stat.now () and cpu0 = Stat.cpu_seconds () in
  let i = ref 0 in
  while Stat.now () < deadline do
    let c = Stat.cpu_seconds () and w = Stat.now () in
    let op = next !i in
    gen_cpu := !gen_cpu +. (Stat.cpu_seconds () -. c);
    gen_wall := !gen_wall +. (Stat.now () -. w);
    records := op () :: !records;
    incr i
  done;
  ( List.rev !records,
    Stat.now () -. t0 -. !gen_wall,
    Stat.cpu_seconds () -. cpu0 -. !gen_cpu )

let diagnose_op conn w ~seed i =
  let body = Work.diagnose_body w ~seed i in
  fun () ->
    let reply, latency = Stat.time (fun () -> Client.send conn ~path:"/diagnose" body) in
    { latency; verdict = (fun () -> Check.diagnose body reply) }

(* fig6-session: passes of five hunts, one per defect in a seeded
   order, advanced round-robin (round k of every hunt before round k+1 of
   any), one round per operation.  At the deadline the open hunts are
   closed; the run's wall time includes every create and close. *)
let session_loop conn ~seed ~deadline =
  let send = Client.transport conn in
  let records = ref [] and aux = ref 0 and pass = ref 0 in
  let t0 = Stat.now () and cpu0 = Stat.cpu_seconds () in
  let check_aux (r : Work.reply) = if r.Work.status <> 200 then incr aux in
  while Stat.now () < deadline do
    let hunts = Array.map Work.new_hunt (Work.pass_order ~seed !pass) in
    incr pass;
    Array.iter (fun h -> check_aux (Work.open_hunt send h)) hunts;
    for k = 0 to Work.rounds_per_hunt - 1 do
      Array.iter
        (fun h ->
          (* at least one round, however short the run *)
          if Stat.now () < deadline || !records = [] then begin
            let replies, latency = Stat.time (fun () -> Work.play_round send h k) in
            let survivors = Work.survivors h in
            records := { latency; verdict = (fun () -> Check.round survivors replies) } :: !records
          end)
        hunts
    done;
    Array.iter (fun h -> check_aux (Work.close_hunt send h)) hunts
  done;
  (List.rev !records, !aux, Stat.now () -. t0, Stat.cpu_seconds () -. cpu0)

let run w ~seed ~seconds ~workdir =
  let journal k =
    match w with
    | Work.Fig6_session -> Some (Filename.concat workdir (Printf.sprintf "journal-%d" k))
    | _ -> None
  in
  (* set up several times, keep the last server for the timed run *)
  let rec setups k acc =
    let server, t, ok = set_up w ~seed ~journal:(journal k) in
    let acc = (t, ok) :: acc in
    if k < setup_reps (fst (List.nth acc (List.length acc - 1))) then begin
      Server.stop server;
      setups (k + 1) acc
    end
    else (server, acc)
  in
  let server, setups = setups 1 [] in
  let warm_failures =
    List.fold_left (fun n (_, ok) -> n + List.length (List.filter not ok)) 0 setups
  in
  let port = Server.port server in
  let closed f =
    let conn = Client.connect port in
    Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let deadline = Stat.now () +. seconds in
        let loop ?lag ?(aux = 0) ?(conns = 1) (records, wall, cpu) =
          { setup_s = 0.; records; aux_failures = aux; wall; cpu; conns; generator_lag_p95 = lag }
        in
        match w with
        | Work.Catalog_open ->
          let due = Work.arrivals ~seed ~seconds in
          let bodies = Array.init (Array.length due) (Work.catalog_pick ~seed) in
          let cpu0 = Stat.cpu_seconds () in
          let t0, samples = Client.open_loop ~port ~conns:2 ~due ~body:(Array.get bodies) in
          let last =
            List.fold_left
              (fun m (s : Client.open_sample) ->
                Float.max m (t0 +. due.(s.Client.index) +. s.Client.latency))
              t0 samples
          in
          loop ~conns:2
            ~lag:(Stat.quantile 0.95 (List.map (fun (s : Client.open_sample) -> s.Client.lag) samples))
            ( List.map
                (fun (s : Client.open_sample) ->
                  {
                    latency = s.Client.latency;
                    verdict = (fun () -> Check.diagnose bodies.(s.Client.index) s.Client.reply);
                  })
                samples,
              last -. t0,
              Stat.cpu_seconds () -. cpu0 )
        | Work.Fig6_session ->
          closed (fun conn ->
              let records, aux, wall, cpu = session_loop conn ~seed ~deadline in
              loop ~aux (records, wall, cpu))
        | Work.Fig7_warm | Work.Netlist_cold ->
          closed (fun conn -> loop (closed_loop ~deadline ~next:(diagnose_op conn w ~seed))))
  in
  {
    outcome with
    setup_s = Stat.median (List.map fst setups);
    aux_failures = outcome.aux_failures + warm_failures;
  }
