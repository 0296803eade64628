(* Request-scoped context, reachable from any code on the current
   domain+thread without threading a parameter through every call.

   Domain.DLS alone is the wrong key here: the service runs every
   connection handler as a systhread on domain 0, so a DLS slot would be
   shared (and torn) by concurrent requests.  The store is instead a
   small mutex-protected table keyed by (domain id, thread id), which
   distinguishes both serve threads (same domain, distinct threads) and
   pool workers (distinct domains).

   The fast path matters: [current ()] is called from recorded trace
   spans (e.g. every Mna.solve).  When no context is installed anywhere
   in the process — plain CLI runs outside any request, job or script —
   it is a single atomic load. *)

type value = Str of string | Num of float | Int of int | Bool of bool

type t = {
  trace_id : string;
  mutable session_id : string option;
  client : string option;
  route : string option;
  lock : Mutex.t;  (* guards fields/timings: handler thread vs worker *)
  mutable fields : (string * value) list;  (* newest first *)
  timings : (string, float ref) Hashtbl.t;  (* per-stage seconds, summed *)
}

let make ?session_id ?client ?route ~trace_id () =
  {
    trace_id;
    session_id;
    client;
    route;
    lock = Mutex.create ();
    fields = [];
    timings = Hashtbl.create 8;
  }

let trace_id t = t.trace_id
let session_id t = t.session_id
let client t = t.client
let route t = t.route

(* --- the store --- *)

let active = Atomic.make 0
let store : (int * int, t) Hashtbl.t = Hashtbl.create 32
let store_mutex = Mutex.create ()

let key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current () =
  if Atomic.get active = 0 then None
  else begin
    let k = key () in
    Mutex.lock store_mutex;
    let c = Hashtbl.find_opt store k in
    Mutex.unlock store_mutex;
    c
  end

let with_context ctx f =
  let k = key () in
  Mutex.lock store_mutex;
  let previous = Hashtbl.find_opt store k in
  Hashtbl.replace store k ctx;
  Mutex.unlock store_mutex;
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active;
      Mutex.lock store_mutex;
      (match previous with
      | Some p -> Hashtbl.replace store k p
      | None -> Hashtbl.remove store k);
      Mutex.unlock store_mutex)
    f

let with_context_opt ctx f =
  match ctx with None -> f () | Some ctx -> with_context ctx f

(* --- accumulation --- *)

let set_session id =
  match current () with None -> () | Some c -> c.session_id <- Some id

let annotate_ctx c k v =
  Mutex.lock c.lock;
  c.fields <- (k, v) :: c.fields;
  Mutex.unlock c.lock

let annotate k v =
  match current () with None -> () | Some c -> annotate_ctx c k v

let add_timing name dt =
  match current () with
  | None -> ()
  | Some c ->
    Mutex.lock c.lock;
    (match Hashtbl.find_opt c.timings name with
    | Some r -> r := !r +. dt
    | None -> Hashtbl.add c.timings name (ref dt));
    Mutex.unlock c.lock

(* Latest annotation of a key wins; earlier ones are dropped. *)
let fields t =
  Mutex.lock t.lock;
  let raw = t.fields in
  Mutex.unlock t.lock;
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    raw

let timings t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.timings [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l
