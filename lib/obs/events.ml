(* Wide events: one structured record per unit of work (HTTP request,
   session step, batch job), carrying the request identity from the
   active {!Context} plus every annotation and stage timing it
   accumulated.

   Emission appends to a bounded ring (the flight recorder's source of
   truth — always on, oldest-first eviction) and, when a sink is
   installed (--wide-events FILE), writes one JSON line per event.  The
   ring is mutex-protected: events are a per-request cost, not a
   per-sample one, so a lock is fine and guarantees the recorder never
   tears an event under concurrent emitters.  A global sequence number,
   taken under the ring lock so ring order is seq order, gives events a
   total order that survives the export. *)

type value = Context.value =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool

type t = {
  seq : int;
  ts : float;  (* Unix.gettimeofday at emission *)
  name : string;
  trace_id : string option;
  session_id : string option;
  client : string option;
  route : string option;
  fields : (string * value) list;
}

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let next_seq = ref 0 (* guarded by [ring_mutex] *)

(* --- ring --- *)

let default_capacity = 256

type ring = {
  mutable slots : t option array;
  mutable next : int;  (* slot of the next write *)
  mutable stored : int;  (* <= capacity *)
}

let ring =
  { slots = Array.make default_capacity None; next = 0; stored = 0 }

let ring_mutex = Mutex.create ()

let set_capacity n =
  let n = Int.max 1 n in
  Mutex.lock ring_mutex;
  ring.slots <- Array.make n None;
  ring.next <- 0;
  ring.stored <- 0;
  Mutex.unlock ring_mutex

let capacity () =
  Mutex.lock ring_mutex;
  let n = Array.length ring.slots in
  Mutex.unlock ring_mutex;
  n

let clear () =
  Mutex.lock ring_mutex;
  Array.fill ring.slots 0 (Array.length ring.slots) None;
  ring.next <- 0;
  ring.stored <- 0;
  Mutex.unlock ring_mutex

let recent () =
  Mutex.lock ring_mutex;
  let cap = Array.length ring.slots in
  let events = ref [] in
  (* walk backwards from the newest slot, collecting oldest-first *)
  for i = 0 to ring.stored - 1 do
    let slot = (ring.next - 1 - i + (2 * cap)) mod cap in
    match ring.slots.(slot) with
    | Some e -> events := e :: !events
    | None -> ()
  done;
  Mutex.unlock ring_mutex;
  !events

(* --- JSON --- *)

let json_value b = function
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Export.json_escape s);
    Buffer.add_char b '"'
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
    if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.6g" v)
    else
      Buffer.add_string b
        (if Float.is_nan v then "\"nan\""
         else if v > 0. then "\"inf\""
         else "\"-inf\"")

let to_json e =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"seq\": %d, \"ts\": %.6f" e.seq e.ts);
  Buffer.add_string b
    (Printf.sprintf ", \"event\": \"%s\"" (Export.json_escape e.name));
  let opt key = function
    | None -> ()
    | Some v ->
      Buffer.add_string b
        (Printf.sprintf ", \"%s\": \"%s\"" key (Export.json_escape v))
  in
  opt "trace" e.trace_id;
  opt "session" e.session_id;
  opt "client" e.client;
  opt "route" e.route;
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ", \"%s\": " (Export.json_escape k));
      json_value b v)
    e.fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- sink --- *)

let sink : (string -> unit) option ref = ref None
let sink_mutex = Mutex.create ()

let set_sink s =
  Mutex.lock sink_mutex;
  sink := s;
  Mutex.unlock sink_mutex

let file_sink path =
  let oc = open_out path in
  let write line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  set_sink (Some write);
  fun () ->
    set_sink None;
    close_out_noerr oc

(* --- emission --- *)

let emit ?ctx ~name fields =
  if enabled () then begin
    let ctx = match ctx with Some _ as c -> c | None -> Context.current () in
    let identity, accumulated =
      match ctx with
      | None -> ((None, None, None, None), [])
      | Some c ->
        let timing_fields =
          Context.timings c
          |> List.map (fun (stage, dt) -> ("t_" ^ stage, Num dt))
        in
        ( ( Some (Context.trace_id c),
            Context.session_id c,
            Context.client c,
            Context.route c ),
          Context.fields c @ timing_fields )
    in
    let trace_id, session_id, client, route = identity in
    let fields = fields @ accumulated in
    Mutex.lock ring_mutex;
    let e =
      {
        seq = !next_seq;
        ts = Unix.gettimeofday ();
        name;
        trace_id;
        session_id;
        client;
        route;
        fields;
      }
    in
    incr next_seq;
    let cap = Array.length ring.slots in
    ring.slots.(ring.next) <- Some e;
    ring.next <- (ring.next + 1) mod cap;
    ring.stored <- Int.min cap (ring.stored + 1);
    Mutex.unlock ring_mutex;
    Mutex.lock sink_mutex;
    let s = !sink in
    (match s with Some write -> write (to_json e) | None -> ());
    Mutex.unlock sink_mutex
  end
