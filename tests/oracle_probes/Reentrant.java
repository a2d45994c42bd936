import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// locks are reentrant: after the first unlock one hold is left, so the
// write is guarded
@ThreadSafe
class Reentrant {
  private int x = 0;
  private final Lock lock = new ReentrantLock();

  public void inc() {
    lock.lock();
    lock.lock();
    x = x + 1;
    lock.unlock();
    lock.unlock();
  }
}
