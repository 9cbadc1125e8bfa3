open Farm_sim
open Farm_core

(* The nemesis applies a fault schedule to a live cluster, translating each
   scripted fault into the corresponding injection hook and reporting it
   through the engine tracer so that a replayed seed produces an identical
   event trace.

   Faults are applied from the driving loop, never from scheduled engine
   callbacks: [Cluster.power_cycle] drives the engine internally, so it must
   run between [Engine.run] calls, not within one. *)

let emit c fmt = Engine.emitf c.Cluster.engine fmt

let apply (c : Cluster.t) (fault : Schedule.fault) =
  match fault with
  | Schedule.Crash m ->
      if (Cluster.machine c m).State.alive then begin
        emit c "nemesis: crash m%d" m;
        Cluster.kill c m
      end
  | Schedule.Restart m ->
      let st = Cluster.machine c m in
      if not st.State.alive then begin
        (* reboot with the machine's own pre-crash configuration: a real
           reincarnation comes back with stale knowledge and must be kept
           out by the membership protocol, not by the harness *)
        emit c "nemesis: restart m%d" m;
        ignore (Cluster.restart_machine c m ~config:st.State.config)
      end
  | Schedule.Power_cycle ->
      emit c "nemesis: power-cycle";
      Cluster.heal c;
      Cluster.power_cycle c
  | Schedule.Partition ms ->
      emit c "nemesis: partition {%a}" Fmt.(list ~sep:(any ",") int) ms;
      Cluster.partition c ~group:1 ms
  | Schedule.Heal ->
      emit c "nemesis: heal";
      Cluster.heal c
  | Schedule.Link_fault { src; dst; delay; loss } ->
      emit c "nemesis: link-fault %d->%d delay=%a loss=%.2f" src dst Time.pp delay loss;
      Farm_net.Fabric.set_link_fault ~delay ~loss c.Cluster.fabric ~src ~dst
  | Schedule.Link_heal { src; dst } ->
      emit c "nemesis: link-heal %d->%d" src dst;
      Farm_net.Fabric.clear_link_fault c.Cluster.fabric ~src ~dst
  | Schedule.Lease_stall { machine; duration } ->
      let st = Cluster.machine c machine in
      if st.State.alive then begin
        emit c "nemesis: lease-stall m%d %a" machine Time.pp duration;
        Lease.inject_stall st ~duration
      end
  | Schedule.Clock_skew { machine; delta } ->
      let st = Cluster.machine c machine in
      if st.State.alive then begin
        emit c "nemesis: clock-skew m%d %a" machine Time.pp delta;
        Lease.inject_clock_skew st ~delta
      end
  | Schedule.Slow_nic { machine; delay_factor; loss } ->
      emit c "nemesis: slow-nic m%d x%.1f loss=%.2f" machine delay_factor loss;
      Farm_net.Fabric.set_nic_gray ~delay_factor ~loss c.Cluster.fabric ~machine
  | Schedule.Nic_heal machine ->
      emit c "nemesis: nic-heal m%d" machine;
      Farm_net.Fabric.clear_nic_gray c.Cluster.fabric ~machine
  | Schedule.Asym_partition { srcs; dsts } ->
      emit c "nemesis: asym-partition {%a}->{%a}"
        Fmt.(list ~sep:(any ",") int)
        srcs
        Fmt.(list ~sep:(any ",") int)
        dsts;
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src <> dst then Farm_net.Fabric.set_blackhole c.Cluster.fabric ~src ~dst)
            dsts)
        srcs
  | Schedule.Cpu_slow { machine; factor } ->
      let st = Cluster.machine c machine in
      if st.State.alive then begin
        emit c "nemesis: cpu-slow m%d x%d" machine factor;
        Farm_sim.Cpu.set_slow_factor st.State.cpu factor
      end
  | Schedule.Cpu_heal machine ->
      let st = Cluster.machine c machine in
      if st.State.alive then begin
        emit c "nemesis: cpu-heal m%d" machine;
        Farm_sim.Cpu.set_slow_factor st.State.cpu 1
      end
  | Schedule.Lease_flap { machine; period; count; stall } ->
      (* Expand the flap into [count] periodic stall injections, scheduled
         as engine callbacks. Unlike power-cycling, a stall injection only
         mutates lease state and emits — safe from inside a callback, and
         the deterministic engine clock makes the expansion replayable. *)
      emit c "nemesis: lease-flap m%d %dx%a every %a" machine count Time.pp stall
        Time.pp period;
      for i = 0 to count - 1 do
        Engine.schedule_in c.Cluster.engine ~after:(Time.mul_int period i) (fun () ->
            let st = Cluster.machine c machine in
            if st.State.alive then begin
              emit c "nemesis: lease-flap-stall m%d %a" machine Time.pp stall;
              Lease.inject_stall st ~duration:stall
            end)
      done

(* Run the schedule against the cluster: advance the simulation to each
   event's instant (relative to [start]) and apply its fault. Returns with
   the engine at the last event's time; the caller finishes the run and
   heals/quiesces before probing invariants. *)
let run (c : Cluster.t) ~start (sched : Schedule.t) =
  List.iter
    (fun (e : Schedule.event) ->
      let at = Time.add start e.Schedule.at in
      if Time.( > ) at (Cluster.now c) then Cluster.run_until c ~at;
      apply c e.Schedule.fault)
    sched.Schedule.events
