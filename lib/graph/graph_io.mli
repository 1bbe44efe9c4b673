(** Plain-text graph exchange format (DIMACS-flavoured) and DOT export.

    Format, one record per line, [#]-comments allowed:
    {v
    p ocr <n> <m>
    a <src> <dst> <weight> [<transit>]
    v}
    Nodes are 1-indexed in files (DIMACS convention) and 0-indexed in
    the API.  A missing transit field means transit 1.

    {b The arc count is checked.}  The problem line's [<m>] is the
    number of arc lines that follow.  A negative [<m>], or one larger
    than the input could hold (an arc line is at least 7 bytes), is a
    [malformed problem line], rejected before anything is allocated.
    An arc line past the declared count fails at that line; an input
    that ends short fails with the declared and found counts.

    {b The node count is bounded.}  A problem line declaring more than
    {!max_nodes} (2²⁰ = 1 048 576) nodes fails with
    [<n> nodes exceed the limit of 1048576], also before anything is
    allocated: isolated nodes cost no input bytes, so unlike [<m>] the
    file size cannot bound [<n>], and the graph build allocates O(n).
    The largest graph the benchmarks use has 32 768 nodes.

    {b One scanner reads both formats.}  {!of_string} and {!of_dimacs}
    are the same byte-level scanner, parameterized by the problem-line
    tag, the comment byte and whether a transit field is allowed.  It
    sizes the four label arrays from the problem line, writes each arc
    straight into them and hands them to the CSR build without a copy.
    A well-formed arc line — [a] and then space-separated
    [-?[0-9]{1,18}] fields — is parsed in one pass over a buffer that
    ends in a newline sentinel, so the pass tests no index against the
    input's length.  Any other line
    takes the general path (trim, split on spaces, [int_of_string] per
    token), so signs, radix prefixes, underscores, tabs, carriage
    returns and overlong numbers are accepted or rejected exactly as
    [int_of_string_opt] decides, with the same messages. *)

val max_nodes : int
(** The largest node count a problem line may declare: 2²⁰. *)

val to_string : Digraph.t -> string
val of_string : string -> Digraph.t
(** @raise Failure with a line-numbered message on malformed input. *)

val write_file : string -> Digraph.t -> unit

val load : string -> Digraph.t
(** Reads a graph file: {!of_dimacs} for a [.gr] suffix, {!of_string}
    for any other — the one format-dispatch rule every front-end
    (solve, batch, serve, stream, cluster workers) shares.  The file
    is read to its end into one fresh buffer; its length only sizes
    that buffer, so a file that changes size while it is read gets the
    scanner's verdict on the bytes that arrived (a truncated file, the
    same [Failure] as a short string), never [End_of_file].
    @raise Sys_error if the file cannot be opened or read.
    @raise Failure on malformed input. *)

val to_dot : ?name:string -> ?highlight:int list -> Digraph.t -> string
(** GraphViz export; [highlight] arcs are drawn bold red (used for
    critical cycles). *)

(** {1 DIMACS shortest-path format}

    The 9th DIMACS challenge [.gr] format that the original SPRAND
    emits: a [p sp <n> <m>] problem line and [a <src> <dst> <weight>]
    arc lines (1-indexed, no transit times — they default to 1 here).
    [c]-comment lines are skipped.  The arc-count rule above applies. *)

val of_dimacs : string -> Digraph.t
(** @raise Failure with a line-numbered message on malformed input. *)

val to_dimacs : Digraph.t -> string
(** Transit times are not representable in [.gr] and are dropped; use
    {!to_string} to keep them. *)
