(** Prometheus text-exposition rendering (format version 0.0.4).

    The renderer takes a list of metric {e families} — name, HELP text,
    TYPE, and samples with label sets — and produces the classic
    [# HELP] / [# TYPE] / sample-line text format scraped by Prometheus
    and read by promtool.  Output is deterministic: families are sorted
    by name, samples within a family by their rendered (sorted-key)
    label string, so two scrapes of the same state are byte-identical
    and the format is golden-testable. *)

type typ = Counter_t | Gauge_t | Summary_t

type sample = { labels : (string * string) list; value : float }

type family = { fname : string; help : string; typ : typ; samples : sample list }

val render : family list -> string
(** Render families to exposition text.  Stable order; label values are
    escaped per the exposition rules (backslash, quote, newline). *)

val single : ?labels:(string * string) list -> string -> string -> typ -> float -> family
(** [single name help typ v] is a one-sample family — convenience for
    plain counters and gauges. *)
