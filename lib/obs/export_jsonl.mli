(** The JSONL exporter: one self-describing JSON object per line, in the
    spirit of the engine's [Record]/[Sink] streams.  Lines come in four
    shapes, discriminated by ["type"]:

    - [{"type":"span","name","cat","ts_us","dur_us","pid","tid","round",
       "round_end","args":{...}}]
    - [{"type":"instant","name","cat","ts_us","pid","tid","round",
       "args":{...}}]
    - [{"type":"counter","name","value"}]
    - [{"type":"histogram","name","count","sum","max",
       "buckets":[[lo,hi,count],...]}]

    [round] fields are omitted when no logical round was set. *)

val lines : unit -> string list
(** The full stream for the current buffer and registries: all events in
    timestamp order, then counters, then histograms. *)

val write : out_channel -> unit
(** [lines], newline-terminated, to a channel. *)
