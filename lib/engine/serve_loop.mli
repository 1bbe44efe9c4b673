(** The [ocr serve] and [ocr stream] protocol loops as library
    functions over explicit channels.

    [bin/main.ml] used to own these loops, which made them untestable
    and unshareable; now the CLI, the cluster workers and the test
    suite all drive the same code over whatever channel pair they hold
    (stdin/stdout, socketpairs, pipes).  Every protocol line — response,
    error, telemetry, metrics — is followed by an explicit flush, so a
    socket or pipe peer sees each reply as soon as it is produced
    instead of whenever the runtime's buffer happens to fill. *)

val out_line : out_channel -> string -> unit
(** The line framer of every protocol: the line, a newline, a flush. *)

val serve : ?wall:bool -> Engine.t -> in_channel -> out_channel -> unit
(** The [ocr serve] line protocol: each input line is a request
    ([<graph-file> key=value ...]) answered by {!handle_request} under
    the next request id; [telemetry] prints counters, [metrics] the
    Prometheus exposition, [quit] or EOF returns. *)

val error_reply : id:int -> ?file:string -> string -> string
(** [req=<id> [file=<path>] status=error msg="..."]: the error reply
    to a one-shot solve, whichever process answers it (serve loop,
    cluster worker, or the cluster router refusing at admission). *)

val handle_request : ?wall:bool -> Engine.t -> id:int -> string -> string
(** One request spec line to one response line, under the caller's
    request id: an {!error_reply} (with the file for a load failure)
    or {!Engine.response_line}.  Never raises: the cluster router
    matches worker responses to requests FIFO, so every request line
    must produce exactly one response line. *)

val print_telemetry : Engine.t -> out_channel -> unit
(** The [telemetry] reply: the {!Telemetry.pp_summary} block, one
    [# ]-prefixed line each, flushed. *)

val stream : ?metrics_every:int -> Dyn_serve.t -> in_channel -> out_channel -> unit
(** The [ocr stream] NDJSON loop: one request line, one response line,
    until [quit] or EOF; blank and [#] lines are skipped.  With
    [metrics_every:n], every n-th handled request is followed by one
    NDJSON metrics snapshot line. *)
