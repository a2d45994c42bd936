import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// the lock is taken in one branch only: the other branch races
@ThreadSafe
class BranchLock {
  private int hits = 0;
  private final Lock lock = new ReentrantLock();

  public void hit(boolean careful) {
    if (careful) {
      lock.lock();
      hits = hits + 1;
      lock.unlock();
    } else {
      hits = hits + 1;
    }
  }
}
