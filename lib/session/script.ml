module Interval = Flames_fuzzy.Interval
module Quantity = Flames_circuit.Quantity
module Netlist = Flames_circuit.Netlist
module Fault = Flames_circuit.Fault
module Library = Flames_circuit.Library
module Measure = Flames_sim.Measure
module Report = Flames_core.Report
module Diagnose = Flames_core.Diagnose
module Best_test = Flames_strategy.Best_test
module Context = Flames_obs.Context
module Events = Flames_obs.Events
module Ids = Flames_obs.Ids

type command =
  | Circuit of string
  | Fault of string
  | Imprecision of float
  | Probe of string
  | Measure of string * float * float option
  | Observe of Quantity.t * Interval.t
  | Retract of int
  | Refine of int * float * float option
  | Refine_interval of int * Interval.t
  | Diagnoses
  | Next
  | Status
  | Quit

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let float_arg what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "%s: not a number (%S)" what s)

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not a measurement id (%S)" what s)

let ( let* ) = Result.bind

let parse_line line =
  match tokens line with
  | [] -> Ok None
  | cmd :: args -> (
    let some c = Ok (Some c) in
    match (String.lowercase_ascii cmd, args) with
    | "circuit", [ name ] -> some (Circuit name)
    | "fault", [ spec ] -> some (Fault spec)
    | "imprecision", [ r ] ->
      let* r = float_arg "imprecision" r in
      if r < 0. then Error "imprecision: negative"
      else some (Imprecision r)
    | "probe", [ node ] -> some (Probe node)
    | "measure", node :: center :: rest ->
      let* center = float_arg "measure center" center in
      let* spread =
        match rest with
        | [] -> Ok None
        | [ s ] -> Result.map Option.some (float_arg "measure spread" s)
        | _ -> Error "measure: too many arguments"
      in
      some (Measure (node, center, spread))
    | "observe", [ node; m1; m2; alpha; beta ] ->
      let* m1 = float_arg "observe m1" m1 in
      let* m2 = float_arg "observe m2" m2 in
      let* alpha = float_arg "observe alpha" alpha in
      let* beta = float_arg "observe beta" beta in
      let* interval =
        match Interval.make ~m1 ~m2 ~alpha ~beta with
        | v -> Ok v
        | exception Interval.Invalid msg -> Error ("observe: " ^ msg)
      in
      some (Observe (Quantity.voltage node, interval))
    | "retract", [ id ] ->
      let* id = int_arg "retract" id in
      some (Retract id)
    | "refine-interval", [ id; m1; m2; alpha; beta ] ->
      let* id = int_arg "refine-interval" id in
      let* m1 = float_arg "refine-interval m1" m1 in
      let* m2 = float_arg "refine-interval m2" m2 in
      let* alpha = float_arg "refine-interval alpha" alpha in
      let* beta = float_arg "refine-interval beta" beta in
      let* interval =
        match Interval.make ~m1 ~m2 ~alpha ~beta with
        | v -> Ok v
        | exception Interval.Invalid msg -> Error ("refine-interval: " ^ msg)
      in
      some (Refine_interval (id, interval))
    | "refine", id :: center :: rest ->
      let* id = int_arg "refine" id in
      let* center = float_arg "refine center" center in
      let* spread =
        match rest with
        | [] -> Ok None
        | [ s ] -> Result.map Option.some (float_arg "refine spread" s)
        | _ -> Error "refine: too many arguments"
      in
      some (Refine (id, center, spread))
    | "diagnoses", [] | "diagnose", [] -> some Diagnoses
    | "next", [] | "next-test", [] -> some Next
    | "status", [] -> some Status
    | "quit", [] | "exit", [] -> some Quit
    | cmd, _ ->
      Error
        (Printf.sprintf
           "unknown or malformed command %S (try: circuit, fault, \
            imprecision, probe, measure, retract, refine, diagnoses, next, \
            status, quit)"
           cmd))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok None -> go (n + 1) acc rest
      | Ok (Some c) -> go (n + 1) ((n, c) :: acc) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

(* Interpreter state: the circuit directives accumulate until the first
   probe forces a ground-truth solve; the solution is cached and
   invalidated when a directive changes it. *)
type state = {
  mutable session : Session.t option;
  mutable nominal : Netlist.t option;
  mutable faults : Fault.t list;  (** applied in order for ground truth *)
  mutable imprecision : float;
  mutable truth : Flames_sim.Mna.solution option;  (** cache *)
}

let instrument st = { Measure.relative = st.imprecision; floor = 5e-4 }

let require_session st =
  match st.session with
  | Some s -> Ok s
  | None -> Error "no circuit loaded (use: circuit <name>)"

let ground_truth st =
  match st.truth with
  | Some sol -> Ok sol
  | None -> (
    match st.nominal with
    | None -> Error "no circuit loaded (use: circuit <name>)"
    | Some nominal -> (
      match
        List.fold_left (fun net f -> Fault.inject net f) nominal st.faults
      with
      | faulty ->
        let sol = Flames_sim.Mna.solve faulty in
        st.truth <- Some sol;
        Ok sol
      | exception Not_found -> Error "fault names an unknown component"
      | exception exn ->
        Error
          (Printf.sprintf "cannot solve the faulted circuit: %s"
             (Printexc.to_string exn))))

let pp_measurement ppf (m : Session.measurement) =
  Format.fprintf ppf "[%d] %a = %a" m.Session.id Quantity.pp
    m.Session.quantity Interval.pp m.Session.interval

let print_diagnoses print (r : Diagnose.result) =
  let fmt = Format.asprintf in
  List.iter
    (fun (s : Diagnose.symptom) ->
      match s.verdict with
      | Some v ->
        print
          (fmt "  symptom %a: measured %a, %s" Quantity.pp s.quantity
             Interval.pp s.measured
             (Format.asprintf "%a" Flames_fuzzy.Consistency.pp_verdict v))
      | None -> ())
    r.symptoms;
  List.iter
    (fun (s : Diagnose.suspect) ->
      print
        (Printf.sprintf "  suspect %s @ %.3f%s" s.component s.suspicion
           (if s.explains then " (explains all symptoms)" else "")))
    r.suspects;
  List.iter
    (fun (components, rank) ->
      print
        (Printf.sprintf "  diagnosis {%s} @ %.3f"
           (String.concat ", " components)
           rank))
    r.diagnoses;
  print ("  " ^ Report.summary r)

let exec ~print ~session_of st cmd =
  let ok = Ok () in
  match cmd with
  | Circuit name -> (
    match List.assoc_opt name Library.builtins with
    | None ->
      Error
        (Printf.sprintf "unknown circuit %S (builtins: %s)" name
           (String.concat ", " (List.map fst Library.builtins)))
    | Some build ->
      let netlist = build () in
      st.nominal <- Some netlist;
      st.truth <- None;
      st.session <- Some (session_of netlist);
      print
        (Printf.sprintf "session on %s (%d components)" netlist.Netlist.name
           (List.length netlist.Netlist.components));
      ok)
  | Fault spec -> (
    match Fault.of_spec spec with
    | Error e -> Error e
    | Ok fault ->
      st.faults <- st.faults @ [ fault ];
      st.truth <- None;
      print (Format.asprintf "ground truth: %a" Fault.pp fault);
      ok)
  | Imprecision r ->
    st.imprecision <- r;
    st.truth <- None;
    ok
  | Probe node ->
    let* session = require_session st in
    let* sol = ground_truth st in
    let q = Quantity.voltage node in
    let* interval =
      match Measure.probe ~instrument:(instrument st) sol q with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "node %S is not measurable" node)
    in
    let m = Session.add_measurement session q interval in
    print (Format.asprintf "%a" pp_measurement m);
    ok
  | Measure (node, center, spread) ->
    let* session = require_session st in
    let interval =
      match spread with
      | Some s -> Interval.number center ~spread:s
      | None -> Measure.fuzzify (instrument st) center
    in
    let m = Session.add_measurement session (Quantity.voltage node) interval in
    print (Format.asprintf "%a" pp_measurement m);
    ok
  | Observe (quantity, interval) ->
    let* session = require_session st in
    let m = Session.add_measurement session quantity interval in
    print (Format.asprintf "%a" pp_measurement m);
    ok
  | Retract id ->
    let* session = require_session st in
    if Session.retract session ~id then begin
      print (Printf.sprintf "retracted [%d]" id);
      ok
    end
    else Error (Printf.sprintf "no measurement [%d]" id)
  | Refine (id, center, spread) -> (
    let* session = require_session st in
    let interval =
      match spread with
      | Some s -> Interval.number center ~spread:s
      | None -> Measure.fuzzify (instrument st) center
    in
    match Session.refine session ~id interval with
    | Some m ->
      print (Format.asprintf "refined %a" pp_measurement m);
      ok
    | None -> Error (Printf.sprintf "no measurement [%d]" id))
  | Refine_interval (id, interval) -> (
    let* session = require_session st in
    match Session.refine session ~id interval with
    | Some m ->
      print (Format.asprintf "refined %a" pp_measurement m);
      ok
    | None -> Error (Printf.sprintf "no measurement [%d]" id))
  | Diagnoses ->
    let* session = require_session st in
    print_diagnoses print (Session.diagnoses session);
    ok
  | Next -> (
    let* session = require_session st in
    match Session.next_test session with
    | Some e ->
      print (Format.asprintf "%a" Best_test.pp_evaluation e);
      ok
    | None ->
      print "no test point left to recommend";
      ok)
  | Status ->
    let* session = require_session st in
    print
      (Printf.sprintf "circuit %s, %d measurement(s), %d step(s)"
         (Session.netlist session).Netlist.name
         (List.length (Session.measurements session))
         (Session.steps session));
    List.iter
      (fun m -> print (Format.asprintf "  %a" pp_measurement m))
      (Session.measurements session);
    ok
  | Quit -> ok

let run ?(echo = false) ?(print = print_endline)
    ?(session_of = fun netlist -> Session.create netlist) commands =
  let st =
    {
      session = None;
      nominal = None;
      faults = [];
      imprecision = 0.002;
      truth = None;
    }
  in
  let render cmd =
    match cmd with
    | Circuit n -> "circuit " ^ n
    | Fault s -> "fault " ^ s
    | Imprecision r -> Printf.sprintf "imprecision %g" r
    | Probe n -> "probe " ^ n
    | Measure (n, c, s) ->
      Printf.sprintf "measure %s %g%s" n c
        (match s with Some s -> Printf.sprintf " %g" s | None -> "")
    | Observe (q, v) ->
      Printf.sprintf "observe %s %h %h %h %h"
        (match q with Quantity.Node_voltage n -> n | q -> Quantity.to_string q)
        v.Interval.m1 v.Interval.m2 v.Interval.alpha v.Interval.beta
    | Retract id -> Printf.sprintf "retract %d" id
    | Refine (id, c, s) ->
      Printf.sprintf "refine %d %g%s" id c
        (match s with Some s -> Printf.sprintf " %g" s | None -> "")
    | Refine_interval (id, v) ->
      Printf.sprintf "refine-interval %d %h %h %h %h" id v.Interval.m1
        v.Interval.m2 v.Interval.alpha v.Interval.beta
    | Diagnoses -> "diagnoses"
    | Next -> "next"
    | Status -> "status"
    | Quit -> "quit"
  in
  (* One trace id covers the whole script; each step runs under a fresh
     child context (same trace, same session id once a circuit opened
     one), so its wide event carries per-step — not cumulative — stage
     timings. *)
  let trace_id = Ids.trace_id () in
  let session_id = ref None in
  let session_count = ref 0 in
  let step_count = ref 0 in
  let exec_step cmd =
    let ctx =
      Context.make ?session_id:!session_id ~route:"troubleshoot" ~trace_id ()
    in
    Context.with_context ctx (fun () ->
        incr step_count;
        let t0 = Unix.gettimeofday () in
        let result = exec ~print ~session_of st cmd in
        (match (cmd, result) with
        | Circuit _, Ok () ->
          incr session_count;
          session_id := Some (Printf.sprintf "cli-s%d" !session_count);
          Context.set_session (Option.get !session_id)
        | _ -> ());
        Events.emit ~ctx ~name:"session.step"
          [
            ("step", Events.Int !step_count);
            ("cmd", Events.Str (render cmd));
            ( "status",
              Events.Str (match result with Ok () -> "ok" | Error _ -> "error")
            );
            ("elapsed_ms", Events.Num ((Unix.gettimeofday () -. t0) *. 1e3));
          ];
        result)
  in
  let rec go = function
    | [] -> Ok st.session
    | (line, cmd) :: rest -> (
      if echo then print ("> " ^ render cmd);
      match exec_step cmd with
      | Ok () -> if cmd = Quit then Ok st.session else go rest
      | Error e -> Error (Printf.sprintf "line %d: %s" line e))
  in
  go commands

(* Journal recovery enters here: the session is already open (rebuilt
   from a create or snapshot record), so the interpreter starts with it
   bound instead of waiting for a [circuit] directive.  The replayed
   commands go through the very same [exec] the live interpreter uses —
   which is what makes a recovered session bit-identical to one that
   never restarted. *)
let replay ~session commands =
  let st =
    {
      session = Some session;
      nominal = Some (Session.netlist session);
      faults = [];
      imprecision = 0.002;
      truth = None;
    }
  in
  let rec go = function
    | [] -> Ok ()
    | cmd :: rest -> (
      match exec ~print:ignore ~session_of:(fun _ -> session) st cmd with
      | Ok () -> go rest
      | Error _ as e -> e)
  in
  go commands
