(** One child table for both service tiers: {!Service} supervises
    worker processes, {!Router} supervises shard supervisors, and both
    spawn, reap, probe and stop them through this module. Tier policy
    (what a death means, which children are probed, the grace and the
    stop deadline) comes in as callbacks and parameters. *)

val mkdir_p : string -> unit
val read_file : string -> string option

type 'a child = {
  data : 'a;  (** the tier's own per-slot state *)
  mutable pid : int;  (** [-1] before the first spawn *)
  mutable alive : bool;
  mutable stalled : bool;
      (** SIGKILLed by {!probe} (or by the tier, for a corrupt frame
          stream), reap pending *)
  mutable spawned_at : float;
}

type 'a t = 'a child array

val create : int -> (int -> 'a) -> 'a t
(** [n] never-spawned slots, [data] built from the slot index. *)

val exec :
  ?prog:string -> ?stdin:Unix.file_descr -> ?stdout:Unix.file_descr -> string list -> int
(** Start [prog] (default [Sys.executable_name]: the host binary
    re-executes itself, a child marker in [argv.(1)]) with these
    arguments; stdin/stdout default to ours, stderr is always ours.
    Returns the pid. *)

val spawn :
  ?prog:string ->
  ?stdin:Unix.file_descr ->
  ?stdout:Unix.file_descr ->
  'a child ->
  string list ->
  unit
(** {!exec} into the slot: sets [pid], [alive], clears [stalled],
    stamps [spawned_at]. *)

val reap : 'a t -> on_exit:('a child -> Unix.process_status -> unit) -> unit
(** Non-blocking: every live child that has exited is marked dead and
    passed to [on_exit] with its status. [ECHILD] counts as an exit
    with status [WEXITED 255]. *)

val probe :
  ?eligible:('a child -> bool) ->
  ?wedged:('a child -> bool) ->
  'a t ->
  grace_s:float ->
  interval_s:float ->
  path:('a child -> string) ->
  on_stale:('a child -> unit) ->
  unit
(** Heartbeat check of every live, not-yet-stalled, [eligible] child
    spawned more than [grace_s] ago: a status file at [path c] that is
    stale for [interval_s] (or missing), or a [wedged c] child, is
    marked stalled, handed to [on_stale], then SIGKILLed. Its exit
    arrives through the next {!reap}. *)

val stop :
  ?on_kill:('a child -> unit) ->
  'a t ->
  quit:('a child -> unit) ->
  deadline_s:float ->
  on_exit:('a child -> Unix.process_status -> unit) ->
  unit
(** [quit] every live child, reap until all have exited or
    [deadline_s] passes, then [on_kill], SIGKILL and reap each
    straggler. Every exit goes through [on_exit]. *)

val wait_exit : int -> timeout_s:float -> Unix.process_status option
(** Poll one child pid until it exits ([Some status]) or [timeout_s]
    passes ([None]). *)

val string_of_status : Unix.process_status -> string
