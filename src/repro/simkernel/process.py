"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.simkernel.events.Event`
objects; the kernel resumes the generator when the yielded event fires.  The
process object itself is an event that triggers when the generator returns
(success, with the return value) or raises (failure).
"""

from .errors import Interrupt
from .events import Event


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on = None
        if sim.race_detector is not None:
            sim.race_detector.register_process(self)
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        sim._schedule(init, 0)
        init.add_callback(self._resume)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if self.triggered:
            return
        self.sim._schedule_callback(lambda: self._throw_interrupt(cause))

    def _throw_interrupt(self, cause):
        if self.triggered:
            return
        waited = self._waiting_on
        if waited is not None:
            # Detach: the interrupted wait must not resume the process later.
            waited._detach(self._resume)
        self._waiting_on = None
        self._step(Interrupt(cause), throw=True)

    def _resume(self, event):
        self._waiting_on = None
        if event.ok:
            self._step(event.value, throw=False)
        else:
            event.defused = True
            self._step(event.value, throw=True)

    def _step(self, value, throw):
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        if sim.race_detector is not None:
            # Merge the dispatched event's stamp into this process's
            # clock: resuming on an event is a happens-before edge from
            # whoever triggered it.
            sim.race_detector.on_step(self)
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if not isinstance(exc, Exception):
                raise
            self.fail(exc)
            return
        finally:
            sim._active_process = prev

        if not isinstance(target, Event):
            error = TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
            self._generator.close()
            self.fail(error)
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self):
        return f"<Process {self.name!r} alive={self.is_alive}>"
