(* Workload inputs.  Every operation is a pure function of (seed, index);
   the server only ever sees the request bytes built here, and every
   answer is judged against an in-process reference computed from those
   same bytes. *)

module Json = Flames_serve.Json
module Interval = Flames_fuzzy.Interval
module Netlist = Flames_circuit.Netlist
module Library = Flames_circuit.Library
module Parser = Flames_circuit.Parser
module Fault = Flames_circuit.Fault
module Q = Flames_circuit.Quantity
module Model = Flames_core.Model
module Diagnose = Flames_core.Diagnose
module Report = Flames_core.Report
module Session = Flames_session.Session
module Best_test = Flames_strategy.Best_test
module Rng = Flames_check.Rng
module Gen = Flames_check.Gen
module Mna = Flames_sim.Mna
module Measure = Flames_sim.Measure
module Fig7 = Flames_experiments.Fig7

type workload = Fig7_warm | Netlist_cold | Catalog_open | Fig6_session

let workloads =
  [
    ("fig7-warm", Fig7_warm);
    ("netlist-cold", Netlist_cold);
    ("catalog-open", Catalog_open);
    ("fig6-session", Fig6_session);
  ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* catalog-open's offered load, requests per second.  Fixed, so every
   commit is measured under the same arrivals; about a third of what
   one worker sustains on these requests. *)
let catalog_rate = 150.

(* The fig-7 instrument, which is also what the server applies when it
   simulates a catalog fault itself. *)
let instrument = { Measure.relative = 0.002; floor = 5e-4 }
let trusted = [ "vcc" ]

(* {1 Request bytes} *)

let interval_fields (v : Interval.t) =
  [
    ("m1", Json.Num v.Interval.m1);
    ("m2", Json.Num v.Interval.m2);
    ("alpha", Json.Num v.Interval.alpha);
    ("beta", Json.Num v.Interval.beta);
  ]

let node_of = function
  | Q.Node_voltage n -> Some n
  | Q.Branch_current _ | Q.Terminal_current _ | Q.Voltage_drop _
  | Q.Parameter _ ->
    None

let observations_json obs =
  Json.Arr
    (List.filter_map
       (fun (q, v) ->
         Option.map
           (fun n -> Json.Obj (("node", Json.Str n) :: interval_fields v))
           (node_of q))
       obs)

let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

(* {2 fig7-warm} *)

let fig7_bodies =
  lazy
    (Array.of_list
       (List.map
          (fun (j : Flames_engine.Batch.job) ->
            Json.to_string
              (Json.Obj
                 [
                   ("circuit", Json.Str "amplifier");
                   ("trusted", strs trusted);
                   ("observations", observations_json j.Flames_engine.Batch.observations);
                 ]))
          (Fig7.jobs ())))

(* The five defects in a seeded order, reshuffled every pass of five:
   every run sees each defect equally often, whatever the seed. *)
let pass_order ~seed pass =
  let rng = Rng.make (Rng.case_seed ~seed ~case:pass) in
  let a = Array.init 5 Fun.id in
  for k = 4 downto 1 do
    let j = Rng.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

let defect_order ~seed i = (pass_order ~seed (i / 5)).(i mod 5)

(* {2 netlist-cold} *)

(* A resistance within a factor 4.7 above [base].  Series arms
   1k-4.7k and shunts 4.7k-22k keep every node of a 4-rung ladder far
   above the instrument floor: with free ratios, a node can end up at a
   few millivolts, where the readings' flanks swamp the values and
   propagation runs into its step limit. *)
let resistance rng base = Float.round (base *. (10. ** Rng.range rng 0. 0.67))

(* A fully shunted R/V ladder of [1 + l mod 4] rungs, every node probed;
   two in three carry a fault whose kind cycles with [l]. *)
let ladder_body rng l =
  let rungs = 1 + (l mod 4) in
  let ladder =
    {
      Gen.source = Float.round (Rng.range rng 5. 15.);
      tolerance = 0.01;
      imprecision = 0.002;
      rungs =
        List.init rungs (fun _ ->
            { Gen.series = resistance rng 1000.; shunt = Some (resistance rng 4700.) });
    }
  in
  let fault =
    if l mod 3 = 2 then None
    else
      Some
        {
          Gen.rung = l mod rungs;
          on_shunt = l / 2 mod 2 = 1;
          mode = [| Fault.Short; Fault.Open; Fault.Low; Fault.High |].(l / 3 mod 4);
        }
  in
  let spec = { Gen.ladder; fault; probes = List.init (rungs + 1) Fun.id } in
  let nominal, _ = Gen.scenario_netlists spec in
  Json.Obj
    [
      ("netlist", Json.Str (Parser.to_string nominal));
      ("observations", observations_json (Gen.scenario_observations spec));
    ]

(* An amplifier chain of [k] stages with seeded gains near 1 (so the
   last node of a 16-stage chain stays within a few decades of the
   input); three in four ([j] not 3 mod 4) carry one drifted stage.
   Readings are simulated here, client-side. *)
let chain_body rng j k =
  let gains = List.init k (fun _ -> Rng.range rng 0.8 1.25) in
  let faulty =
    if j mod 4 = 3 then gains
    else
      let stage = j * 7 mod k and factor = [| 0.6; 0.8; 1.25; 1.6 |].(j / 4 mod 4) in
      List.mapi (fun i g -> if i = stage then g *. factor else g) gains
  in
  let sol = Mna.solve (Library.amplifier_chain ~gains:faulty ()) in
  let obs =
    Measure.probe_all ~instrument sol (List.map Q.voltage (Library.chain_nodes k))
  in
  Json.Obj
    [
      ("netlist", Json.Str (Parser.to_string (Library.amplifier_chain ~gains ())));
      ("observations", observations_json obs);
    ]

(* Operation [i]'s shape depends on [i] alone, so every seed runs the
   same mix: one in three is a ladder, the others chains whose stage
   count cycles through 2..16 ([j] counts the chains before [i]); which
   part is faulted, and how, also follows the index.  The seed draws the
   component values, so every netlist is new.  (With an even split the
   median would sit on the gap between the cheap ladders and the chains,
   and jump with every small change in the mix.) *)
let cold_body ~seed i =
  let rng = Rng.make (Rng.case_seed ~seed ~case:i) in
  Json.to_string
    (if i mod 3 = 0 then ladder_body rng (i / 3)
     else
       let j = i - (i / 3) - 1 in
       chain_body rng j (2 + (j mod 15)))

(* Unseen netlists of a fixed shape for warming a server up: chains of
   4, 8, 12 and 16 stages. *)
let cold_warm_body ~seed k =
  let rng = Rng.make (Rng.case_seed ~seed ~case:(-2 - k)) in
  Json.to_string (chain_body rng k (4 * (k + 1)))

(* {2 catalog-open} *)

(* The load generator's catalog set: builtin circuits with catalog
   faults, simulated server-side. *)
let catalog =
  [|
    ("divider", Some "r2.R=short");
    ("divider", Some "r1.R=high");
    ("divider", Some "r2.R=3300");
    ("divider", None);
    ("diode", Some "r1.R=open");
    ("diode", None);
  |]

let catalog_body (circuit, fault) =
  Json.to_string
    (Json.Obj
       (("circuit", Json.Str circuit)
       :: (match fault with Some f -> [ ("fault", Json.Str f) ] | None -> [])))

let catalog_pick ~seed i =
  let rng = Rng.make (Rng.case_seed ~seed ~case:i) in
  catalog_body catalog.(Rng.int rng (Array.length catalog))

(* Conditional Poisson arrivals: [rate * seconds] due times, uniform
   order statistics over the window (the count is fixed so throughput
   compares across seeds). *)
let arrivals ~seed ~seconds =
  let n = max 1 (int_of_float (catalog_rate *. seconds)) in
  let rng = Rng.make (Rng.case_seed ~seed ~case:(-1)) in
  let a = Array.init n (fun _ -> Rng.float rng seconds) in
  Array.sort Float.compare a;
  a

(* The diagnose operation [i] of a workload, as request bytes. *)
let diagnose_body w ~seed i =
  match w with
  | Fig7_warm -> (Lazy.force fig7_bodies).(defect_order ~seed i)
  | Netlist_cold -> cold_body ~seed i
  | Catalog_open -> catalog_pick ~seed i
  | Fig6_session -> invalid_arg "diagnose_body: fig6-session runs sessions"

(* {1 Decoding, as the service does} *)

type input = {
  nominal : Netlist.t;
  board : Netlist.t option;
      (** the (possibly faulted) board the server simulates and probes
          when the request carries no observations *)
  text : string option;  (** inline netlist source *)
  config : Model.config;
  observations : Diagnose.observation list;
}

let field k j = Option.bind (Json.mem k j) Json.str_opt
let num k j = Option.bind (Json.mem k j) Json.num_opt

let interval_of j =
  match (num "m1" j, num "m2" j) with
  | Some m1, Some m2 ->
    Interval.make ~m1 ~m2
      ~alpha:(Option.value ~default:0. (num "alpha" j))
      ~beta:(Option.value ~default:0. (num "beta" j))
  | _ -> failwith "reading without m1/m2"

let strings k j =
  match Json.mem k j with
  | Some (Json.Arr l) -> List.filter_map Json.str_opt l
  | _ -> []

let get = function Ok v -> v | Error e -> failwith e

let decode body =
  let j = Json.parse body in
  let nominal, text =
    match (field "circuit" j, field "netlist" j) with
    | Some c, _ -> ((List.assoc c Library.builtins) (), None)
    | None, Some t ->
      (get (Result.map_error (Format.asprintf "%a" Parser.pp_error) (Parser.parse t)), Some t)
    | None, None -> failwith "request without circuit"
  in
  let observations, board =
    match Json.mem "observations" j with
    | Some (Json.Arr items) ->
      ( List.map
          (fun o -> (Q.voltage (Option.get (field "node" o)), interval_of o))
          items,
        None )
    | _ ->
      ( [],
        Some
          (match field "fault" j with
          | Some f -> Fault.inject nominal (get (Fault.of_spec f))
          | None -> nominal) )
  in
  {
    nominal;
    board;
    text;
    config = { Model.default_config with trusted = strings "trusted" j };
    observations;
  }

(* What the server does for a request without observations: simulate
   the faulty board and probe every node voltage. *)
let simulate input board =
  Measure.probe_all ~instrument (Mna.solve board)
    (List.filter
       (function Q.Node_voltage _ -> true | _ -> false)
       (Library.probe_points input.nominal))

let observations input =
  match input.board with Some b -> simulate input b | None -> input.observations

(* {1 Answers}

   A reply is judged on the fields a user acts on, rendered with the
   service's own printer so the reference and the reply compare as
   strings: [degraded], the ranked [diagnoses], [single_faults] and the
   [summary] line. *)

let answer_of_result (r : Diagnose.result) =
  Json.to_string
    (Json.Obj
       [
         ("degraded", Json.Bool r.Diagnose.degraded);
         ( "diagnoses",
           Json.Arr
             (List.map
                (fun (cs, rank) ->
                  Json.Obj [ ("components", strs cs); ("rank", Json.Num rank) ])
                r.Diagnose.diagnoses) );
         ( "single_faults",
           Json.Arr
             (List.map
                (fun (c, rank) ->
                  Json.Obj [ ("component", Json.Str c); ("rank", Json.Num rank) ])
                r.Diagnose.single_faults) );
         ("summary", Json.Str (Report.summary r));
       ])

let answer_of_reply body =
  match Json.parse_result body with
  | Error _ -> "unparsable reply"
  | Ok j ->
    let m k = Option.value ~default:Json.Null (Json.mem k j) in
    Json.to_string
      (Json.Obj
         [
           ("degraded", m "degraded");
           ("diagnoses", m "diagnoses");
           ("single_faults", m "single_faults");
           ("summary", m "summary");
         ])

let next_of_eval = function
  | None -> "null"
  | Some (e : Best_test.evaluation) ->
    Json.to_string
      (Json.Obj
         [
           ("quantity", Json.Str (Q.to_string e.Best_test.test.Best_test.quantity));
           ("score", Json.Num e.Best_test.score);
         ])

let next_of_reply body =
  match Json.parse_result body with
  | Error _ -> "unparsable reply"
  | Ok j -> (
    match Json.mem "test" j with
    | Some (Json.Obj _ as t) ->
      Json.to_string
        (Json.Obj
           [
             ("quantity", Option.value ~default:Json.Null (Json.mem "quantity" t));
             ("score", Option.value ~default:Json.Null (Json.mem "score" j));
           ])
    | _ -> "null")

let fingerprint s = Digest.to_hex (Digest.string s)

(* The from-scratch reference of a diagnose request. *)
let reference_result input =
  Diagnose.run ~config:input.config input.nominal (observations input)

(* {1 fig6-session hunts}

   One hunt per fig-7 defect: create a session on the builtin amplifier;
   for each probe in order vs, n2, v1, n1, e1 a round of measure →
   diagnoses → next; then a refine round (the first reading narrowed)
   and a retract round (the last reading dropped), each followed by
   diagnoses; then close. *)

let hunt_probes = [ "vs"; "n2"; "v1"; "n1"; "e1" ]
let rounds_per_hunt = List.length hunt_probes + 2

let amplifier () = (List.assoc "amplifier" Library.builtins) ()

let readings =
  lazy
    (Array.of_list
       (List.map
          (fun (s : Fig7.scenario) ->
            let sol = Mna.solve (s.Fig7.inject (amplifier ())) in
            List.map
              (fun node ->
                match Measure.probe ~instrument sol (Q.voltage node) with
                | Some v -> (node, v)
                | None -> failwith ("unprobeable node " ^ node))
              hunt_probes)
          Fig7.scenarios))

let create_body =
  Json.to_string
    (Json.Obj [ ("circuit", Json.Str "amplifier"); ("trusted", strs trusted) ])

let reading_body node v =
  Json.to_string (Json.Obj (("node", Json.Str node) :: interval_fields v))

(* Narrow a reading's flanks by half. *)
let narrowed (v : Interval.t) =
  Interval.make ~m1:v.Interval.m1 ~m2:v.Interval.m2 ~alpha:(v.Interval.alpha /. 2.)
    ~beta:(v.Interval.beta /. 2.)

type reply = { status : int; body : string }

(* A request path and body, sent over whatever transport a caller has:
   the loopback socket, or [Router.handle] in-process. *)
type transport = path:string -> string -> reply

type mutation =
  | Add of string * string  (** node, reading JSON *)
  | Replace_first of string  (** the first reading's new JSON *)
  | Drop_last

type hunt = {
  defect : int;
  mutable sid : string;
  mutable live : (int * string * string) list;  (** (mid, node, reading JSON) *)
}

let new_hunt defect = { defect; sid = ""; live = [] }

let sid_of body =
  match Json.parse_result body with
  | Ok j -> Option.value ~default:"" (field "session" j)
  | Error _ -> ""

let mid_of body =
  match Json.parse_result body with
  | Ok j -> Option.fold ~none:(-1) ~some:int_of_float (num "id" j)
  | Error _ -> -1

let reading_json v = Json.to_string (Json.Obj (interval_fields v))
let id_field mid = ("id", Json.Num (float_of_int mid))

(* Round [k] (0-based) of a hunt: its mutation, then the reads, with the
   measurement ids the server handed out. *)
let round_requests h k =
  let readings = (Lazy.force readings).(h.defect) in
  let probes = List.length hunt_probes in
  if k < probes then
    let node, v = List.nth readings k in
    ( ("measure", reading_body node v, Add (node, reading_json v)),
      [ "diagnoses"; "next" ] )
  else if k = probes then
    let mid, node, _ = List.hd h.live in
    let v = narrowed (List.assoc node readings) in
    ( ( "refine",
        Json.to_string (Json.Obj (id_field mid :: interval_fields v)),
        Replace_first (reading_json v) ),
      [ "diagnoses" ] )
  else
    let mid, _, _ = List.nth h.live (List.length h.live - 1) in
    ( ("retract", Json.to_string (Json.Obj [ id_field mid ]), Drop_last),
      [ "diagnoses" ] )

let apply h mutation (reply : reply) =
  if reply.status = 200 then
    h.live <-
      (match mutation with
      | Add (node, r) -> h.live @ [ (mid_of reply.body, node, r) ]
      | Replace_first r ->
        List.mapi (fun i (mid, node, r0) -> (mid, node, if i = 0 then r else r0)) h.live
      | Drop_last -> List.filteri (fun i _ -> i < List.length h.live - 1) h.live)

let survivors h = List.map (fun (_, node, r) -> (node, r)) h.live
let state_key survivors = String.concat ";" (List.map (fun (n, r) -> n ^ "=" ^ r) survivors)

(* The diagnose input a session's surviving readings amount to. *)
let session_input survivors =
  {
    nominal = amplifier ();
    board = None;
    text = None;
    config = { Model.default_config with trusted };
    observations =
      List.map (fun (node, r) -> (Q.voltage node, interval_of (Json.parse r))) survivors;
  }

(* The best next test a session over [survivors] recommends, derived
   from their from-scratch diagnosis the way [Session.next_test] does. *)
let reference_next survivors result =
  let input = session_input survivors in
  let measured (p : Best_test.test_point) =
    List.exists (fun (q, _) -> Q.compare q p.Best_test.quantity = 0) input.observations
  in
  next_of_eval
    (Best_test.best
       (Flames_strategy.Estimation.of_diagnosis result)
       (List.filter (fun p -> not (measured p)) (Best_test.test_points_of_netlist input.nominal)))

let session_path h op = Printf.sprintf "/session/%s/%s" h.sid op

(* Run round [k] over [send]: the mutation reply, then the reads'. *)
let play_round (send : transport) h k =
  let (op, body, mutation), reads = round_requests h k in
  let r = send ~path:(session_path h op) body in
  apply h mutation r;
  r :: List.map (fun op -> send ~path:(session_path h op) "{}") reads

let open_hunt (send : transport) h =
  let r = send ~path:"/session/create" create_body in
  h.sid <- sid_of r.body;
  r

let close_hunt (send : transport) h = send ~path:(session_path h "close") "{}"
