import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// Relock with each window in try/finally, next to a locked reader: the
// write between the windows holds nothing
@ThreadSafe
class RelockTry {
  private int n = 0;
  private final Lock lock = new ReentrantLock();

  public void inc() {
    lock.lock();
    try {
    } finally {
      lock.unlock();
    }
    n = n + 1;
    lock.lock();
    try {
    } finally {
      lock.unlock();
    }
  }

  public int get() {
    lock.lock();
    try {
      return n;
    } finally {
      lock.unlock();
    }
  }
}
