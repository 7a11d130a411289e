(** EXP-K — the asynchronous model (paper, Section 1.4).

    For each algorithm and several label pairs, the agents' routes on an
    oriented ring are handed to the adversarial scheduler of
    {!Rv_async.Async_model}: can an adversary controlling the agents' speeds
    avoid a node meeting?  An edge meeting?

    The paper's observation, reproduced: synchronous guarantees do not
    transfer — for many pairs the adversary evades node meetings entirely
    (and often even edge meetings, since the synchronous schedules stop),
    which is why the asynchronous literature both relaxes the meeting
    notion and designs different (covering-walk) algorithms. *)

val table : ?n:int -> unit -> Rv_util.Table.t
