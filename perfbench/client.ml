(* The load generator: keep-alive loopback connections speaking the
   service's own HTTP framing. *)

module Http = Flames_serve.Http

type conn = Http.conn

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Http.conn fd

let close conn = try Unix.close (Http.fd conn) with Unix.Unix_error _ -> ()

(* One request/response exchange; a broken exchange is status 0. *)
let send conn ~path body : Work.reply =
  match
    Http.write_request (Http.fd conn) ~meth:"POST" ~path body;
    Http.read_response conn
  with
  | Ok r -> { Work.status = r.Http.status; body = r.Http.resp_body }
  | Error _ -> { Work.status = 0; body = "" }
  | exception Unix.Unix_error _ -> { Work.status = 0; body = "" }

let transport conn : Work.transport = fun ~path body -> send conn ~path body

(* Open loop over [conns] connections: request [i] is due at
   [t0 + due.(i)]; whichever connection is free takes the next due
   request.  Latency counts from the due time, so time a request spends
   waiting for a free connection is charged to the system.  [lag] is the
   generator's own lateness: how long after both its due time and its
   connection being free a request actually went out.  The clients run
   in a domain of their own, so their timers never wait for the
   server's connection threads to yield the main domain. *)
type open_sample = { index : int; latency : float; lag : float; reply : Work.reply }

let open_loop ~port ~conns ~due ~body =
  let n = Array.length due in
  let next = Atomic.make 0 in
  let results = Array.make n None in
  let t0 = Stat.now () +. 0.01 in
  let client () =
    let conn = connect port in
    let free = ref t0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let at = t0 +. due.(i) in
        let wait = at -. Stat.now () in
        if wait > 0. then Thread.delay wait;
        let sent = Stat.now () in
        let reply = send conn ~path:"/diagnose" (body i) in
        let done_ = Stat.now () in
        results.(i) <-
          Some
            {
              index = i;
              latency = done_ -. at;
              lag = sent -. Float.max at !free;
              reply;
            };
        free := done_;
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> close conn) loop
  in
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Thread.join (List.init conns (fun _ -> Thread.create client ()))));
  (t0, Array.to_list results |> List.filter_map Fun.id)
