(** Minimal HTTP/1.1 over raw [Unix] file descriptors.

    Just enough protocol for the diagnosis service and its clients:
    request/response parsing with hard size limits, [Content-Length]
    bodies (no chunked encoding, no TLS), keep-alive.  Both directions
    are implemented here so {!Server}, the tests and the benchmark's
    client exercise the same parser. *)

type request = {
  meth : string;  (** verb, as sent (["GET"], ["POST"], ...) *)
  path : string;  (** request target without the query string *)
  query : string;  (** raw query string, [""] when absent *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;  (** names lowercased, in order *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

type error =
  | Eof  (** clean close before the first byte of a message *)
  | Malformed of string  (** protocol violation: answer 400 and close *)
  | Too_large of int
      (** declared or actual size beyond a limit: answer 413 and close *)

type conn
(** A buffered reader over one socket (or pipe) file descriptor. *)

val conn : Unix.file_descr -> conn
val fd : conn -> Unix.file_descr

val read_request : ?max_body:int -> conn -> (request, error) result
(** Parse the next request off the connection.  Limits: request line and
    each header line 8 KiB, at most 100 headers, body at most [max_body]
    (default 1 MiB) — beyond it the request is rejected with
    [Too_large] {e before} the body is read.  A missing or unparsable
    [Content-Length] on a body-less method means an empty body. *)

val read_response : ?max_body:int -> conn -> (response, error) result
(** Client side of the same parser. *)

val header : (string * string) list -> string -> string option
(** Case-insensitive header lookup (names are stored lowercased). *)

val keep_alive : request -> bool
(** Persistent-connection semantics: HTTP/1.1 unless
    [Connection: close]; HTTP/1.0 only with [Connection: keep-alive]. *)

val reason_phrase : int -> string

val write_response :
  Unix.file_descr ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  unit
(** [write_response fd ~status body] sends a complete response with
    [Content-Length] (default content type [application/json]).  Write
    errors (peer went away) are swallowed: the connection is about to be
    closed anyway and a dead client must not kill its handler. *)

val write_request :
  Unix.file_descr ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  meth:string ->
  path:string ->
  string ->
  unit
(** Client side: send [meth path HTTP/1.1] with a [Content-Length] body.
    @raise Unix.Unix_error on write failure. *)
